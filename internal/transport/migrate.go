package transport

// Live shard migration: the transfer half of the cluster's elastic
// membership (see internal/cluster). When the ring moves clients to a
// new owner, the old owner extracts everything it holds for them —
// engine state (open book, claims, predictor learning; see
// internal/adserver migrate.go), staged bundle shelves, and the
// clients' slice of the idempotency-dedup window — into one blob, and
// the new owner adopts it. Three endpoints implement the protocol:
//
//	POST /v1/admin/migrate/out    {epoch, clients}  -> extraction blob
//	POST /v1/admin/migrate/in     <blob>            -> {}
//	POST /v1/admin/migrate/commit {epoch}           -> {}
//
// Each transfer runs under a router-assigned migration epoch. The
// source keeps the extraction blob in an outbox until the epoch
// commits, and the target remembers adopted epochs, so both endpoints
// are idempotent: a router retry — including one that crosses a node
// crash, since outbox, applied set and moved markers are all WAL-logged
// and snapshotted — replays the stored answer instead of re-running.
//
// From the moment of extraction the source answers requests for a moved
// client with 421 Misdirected Request: the engine state is gone, so
// executing would corrupt accounting, and storing or WAL-logging the
// refusal would pin it past the handoff. The router quiesces client
// traffic for the duration of a rebalance, so devices never observe the
// 421s — they exist so that even a stale direct-to-node request cannot
// mutate state the new owner already took.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/adserver"
	"repro/internal/simclock"
)

// migrateOutMsg asks a node to extract clients under an epoch.
type migrateOutMsg struct {
	Epoch   uint64 `json:"epoch"`
	Clients []int  `json:"clients"`
}

// migrateCommitMsg finalizes an epoch on the source, releasing its
// outbox entry.
type migrateCommitMsg struct {
	Epoch uint64 `json:"epoch"`
}

// ClientBlob is one client's complete transferable serving state.
type ClientBlob struct {
	Client int                  `json:"client"`
	Engine adserver.ClientState `json:"engine"`
	Staged []AdMsg              `json:"staged,omitempty"`
	Dedup  []dedupRecord        `json:"dedup,omitempty"`
}

// MigrationBlob is the /v1/admin/migrate wire unit: every moving
// client's state under one epoch.
type MigrationBlob struct {
	Epoch   uint64       `json:"epoch"`
	Source  string       `json:"source,omitempty"`
	Clients []ClientBlob `json:"clients"`
}

// ClientsReply answers GET /v1/admin/clients with the node's currently
// owned client ids.
type ClientsReply struct {
	Clients []int `json:"clients"`
}

// movedErr returns the 421 refusal for a client this node has handed
// away, or nil. The caller holds a shard lock, which is enough to read
// moved: it is written only under lockAll.
func (s *ShardedServer) movedErr(client int) *httpError {
	if !s.moved[client] {
		return nil
	}
	return errf(http.StatusMisdirectedRequest, "client %d migrated to another node", client)
}

// lockAll takes every shard's lock in ascending shard index, quiescing
// the whole node; the returned function releases in reverse. The lock
// order is periodMu or adminMu first, then the shard locks, so
// Checkpoint, migrations and config epochs are atomic against every
// serving path and against each other.
func (s *ShardedServer) lockAll() func() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
}

// migrateOut extracts the clients' full serving state under the given
// epoch and returns the marshaled MigrationBlob. Idempotent: a repeated
// epoch returns the outbox copy without touching state. Runs both live
// (the HTTP handler) and during WAL replay — the record body names only
// the epoch and clients, because the engine state at the record's log
// position is identical to what the live extraction saw.
func (s *ShardedServer) migrateOut(epoch uint64, clients []int) ([]byte, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if blob, done := s.outbox[epoch]; done {
		return blob, nil
	}
	unlock := s.lockAll()
	defer unlock()

	// Group the moving clients by owning shard, preserving determinism
	// via sorted ids.
	ids := append([]int(nil), clients...)
	sort.Ints(ids)
	byShard := make(map[int][]int)
	for _, c := range ids {
		i := s.shardFor(c).idx
		byShard[i] = append(byShard[i], c)
	}
	// Capacity is fixed up front: blobs holds pointers into out.Clients,
	// so the backing array must never reallocate under the appends.
	out := MigrationBlob{Epoch: epoch, Source: s.nodeID, Clients: make([]ClientBlob, 0, len(ids))}
	blobs := make(map[int]*ClientBlob, len(ids))
	for si, sh := range s.shards {
		group := byShard[si]
		if len(group) == 0 {
			continue
		}
		states, err := sh.srv.ExtractClients(group)
		if err != nil {
			return nil, err
		}
		for _, st := range states {
			out.Clients = append(out.Clients, ClientBlob{Client: st.Client, Engine: st})
			cb := &out.Clients[len(out.Clients)-1]
			blobs[st.Client] = cb
			if ads := sh.staged[st.Client]; len(ads) > 0 {
				cb.Staged = toAdMsgs(ads)
				delete(sh.staged, st.Client)
			}
		}
		// The clients' slice of the idempotency window travels too: a
		// device retry that lands on the new owner must replay the stored
		// response, not re-execute.
		var keys []string
		for k, e := range sh.dedup.entries {
			if cb, ok := blobs[e.client]; ok && cb != nil {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := sh.dedup.entries[k]
			cb := blobs[e.client]
			cb.Dedup = append(cb.Dedup, dedupRecord{Key: k, PayloadHash: e.payloadHash, Status: e.status, Body: e.body, At: int64(e.at), Client: e.client})
			delete(sh.dedup.entries, k)
		}
	}
	sort.Slice(out.Clients, func(i, j int) bool { return out.Clients[i].Client < out.Clients[j].Client })
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding migration blob: %w", err)
	}
	if s.moved == nil {
		s.moved = make(map[int]bool)
	}
	for _, c := range ids {
		s.moved[c] = true
	}
	if s.outbox == nil {
		s.outbox = make(map[uint64][]byte)
	}
	s.outbox[epoch] = data
	// Logged while every serving lock is held, so no op for a moved
	// client can be ordered after this record (it would have been
	// refused 421 and never logged).
	s.walAppend(s.shards[0], opMigrateOut, "", migrateOutMsg{Epoch: epoch, Clients: ids})
	return data, nil
}

// migrateIn adopts a MigrationBlob extracted elsewhere. Idempotent by
// epoch. The WAL record carries the full blob — unlike an extraction,
// the adopted state exists nowhere else on this node, so replay must
// import it from the record.
func (s *ShardedServer) migrateIn(raw []byte) error {
	var blob MigrationBlob
	if err := json.Unmarshal(raw, &blob); err != nil {
		return fmt.Errorf("transport: decoding migration blob: %w", err)
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.applied[blob.Epoch] {
		return nil
	}
	unlock := s.lockAll()
	defer unlock()
	for i := range blob.Clients {
		cb := &blob.Clients[i]
		sh := s.shardFor(cb.Client)
		if err := sh.srv.AdoptClients([]adserver.ClientState{cb.Engine}); err != nil {
			return err
		}
		if len(cb.Staged) > 0 {
			sh.staged[cb.Client] = fromAdMsgs(cb.Staged)
		}
		if len(cb.Dedup) > 0 && sh.dedup.entries == nil {
			sh.dedup.entries = make(map[string]dedupEntry)
		}
		for _, r := range cb.Dedup {
			sh.dedup.entries[r.Key] = dedupEntry{payloadHash: r.PayloadHash, status: r.Status, body: r.Body, at: simclock.Time(r.At), client: r.Client}
		}
	}
	if s.applied == nil {
		s.applied = make(map[uint64]bool)
	}
	s.applied[blob.Epoch] = true
	// A client that once moved out may be moving back (a later drain);
	// owning it again clears the refusal.
	for _, cb := range blob.Clients {
		delete(s.moved, cb.Client)
	}
	s.walAppend(s.shards[0], opMigrateIn, "", json.RawMessage(raw))
	return nil
}

// migrateCommit finalizes an epoch on the source: the target holds the
// state durably, so the outbox copy can go. Idempotent; unknown epochs
// are no-ops (the commit may be retried past a crash that already
// applied it).
func (s *ShardedServer) migrateCommit(epoch uint64) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if _, present := s.outbox[epoch]; present {
		defer s.lockAll()()
		delete(s.outbox, epoch)
		s.walAppend(s.shards[0], opMigrateCommit, "", migrateCommitMsg{Epoch: epoch})
	}
}

// OwnedClients lists the clients this node currently serves, sorted.
func (s *ShardedServer) OwnedClients() []int {
	var out []int
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.srv.Clients()...)
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

func (s *ShardedServer) execMigrateOut(msg migrateOutMsg) (json.RawMessage, *httpError) {
	blob, err := s.migrateOut(msg.Epoch, msg.Clients)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "%s", err.Error())
	}
	return blob, nil
}

func (s *ShardedServer) execMigrateIn(raw json.RawMessage) (struct{}, *httpError) {
	if err := s.migrateIn(raw); err != nil {
		return struct{}{}, errf(http.StatusInternalServerError, "%s", err.Error())
	}
	return struct{}{}, nil
}

func (s *ShardedServer) execMigrateCommit(msg migrateCommitMsg) (struct{}, *httpError) {
	s.migrateCommit(msg.Epoch)
	return struct{}{}, nil
}

func (s *ShardedServer) execAdminClients(struct{}) (ClientsReply, *httpError) {
	return ClientsReply{Clients: s.OwnedClients()}, nil
}

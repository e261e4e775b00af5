package transport

// Durability for the sharded server: every mutating operation is
// appended to a write-ahead log (internal/wal) before its response is
// acknowledged, and the full serving state — engines, staged bundles,
// idempotency windows, period-round caches — is periodically
// checkpointed so the log stays short. A process that dies at any
// instant restarts with Recover: restore the newest snapshot, replay
// the log through the same executors that produced it, and resume
// serving. Clients ride their existing retry + idempotency machinery
// across the restart; because the dedup windows are part of the
// durable state, a retry that straddles the crash replays the stored
// response instead of double-executing, preserving exactly-once
// accounting.
//
// What gets logged is the operation, not the effect: client ops are
// recorded as the envelope group that executed — every client op is an
// envelope op (ops.go), and a per-op endpoint's record keeps the
// endpoint's kind and key — period rounds as one record per shard.
// Replay runs them through execGroup / periodStartShardLocked /
// periodEndShardLocked, the code that produced them, so engine
// mutations, dedup entries and the stored response bytes are reproduced
// exactly. Ops that did not mutate anything — idempotent replays, key
// conflicts (409), shed ops (429), cancellation reads — are never
// logged: a shed op's successful retry is logged at its own position,
// and replaying the original too would execute it twice. Rejected
// reports (400) are logged: a failed report still mutates the claim
// table and its response is dedup-stored, so replay must reproduce both.
//
// Fingerprint stability makes the replayed dedup entries useful: replay
// hashes each op's canonical sequential form (opFingerprint), which is
// byte-identical to what the shipped client sends, so a pre-crash key
// maps to the same fingerprint after recovery. Clients with
// non-canonical encodings simply miss the window and re-execute — the
// same contract a cross-form (per-op endpoint vs envelope) retry
// already relies on.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/adserver"
	"repro/internal/client"
	"repro/internal/envelope"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// WAL record kinds beyond the batch-op constants: a coalesced batch
// group, and one shard's slice of a period round.
const (
	opBatch       = "batch"
	opPeriodStart = "period_start"
	opPeriodEnd   = "period_end"

	// Live-migration records (see migrate.go): an extraction (body names
	// the epoch and clients — replay re-extracts, since the engine state
	// at the record's log position equals the live-time state), an
	// adoption (body is the full blob — the state arrived over the wire
	// and exists nowhere else locally), and an epoch commit.
	opMigrateOut    = "migrate_out"
	opMigrateIn     = "migrate_in"
	opMigrateCommit = "migrate_commit"
)

// periodKey identifies one period round: its virtual instant plus the
// coordinator's round index.
type periodKey struct {
	NowNS int64
	Index int
}

// periodRound caches the outcome of one shard's slice of a period
// start/end round, keyed by the round's virtual instant and index.
type periodRound struct {
	NowNS   int64                `json:"now_ns"`
	Index   int                  `json:"index"`
	Stats   adserver.PeriodStats `json:"stats"`
	Bundled int                  `json:"bundled,omitempty"`
	Expired int                  `json:"expired,omitempty"`
}

// walAppend logs one executed mutating operation. The caller must hold
// the lock that orders the mutation (sh.mu), so each shard's log order
// equals its execution order. No-op when durability is off or while
// Recover is replaying (the records being replayed are already on
// disk). An append failure is fail-stop: the handler aborts the
// connection rather than acknowledge an operation that is not durable —
// the client's retry re-executes it on the recovered process.
func (s *ShardedServer) walAppend(sh *shardState, op, key string, body any) {
	if s.wlog == nil || s.recovering.Load() {
		return
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // wire types marshal by construction
	}
	if err := s.wlog.Append(sh.idx, op, key, b); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// walAppendEnvelope is walAppend for a client-op record, whose body is
// the envelope group that executed. The record body is the bytes
// json.Marshal renders (TestWALRecordStreamGolden pins them), from the
// envelope codec unless a string needs an escape. The buffer is the
// record's own: the log's post-durability hook sees it.
func (s *ShardedServer) walAppendEnvelope(sh *shardState, op, key string, env *batchMsg) {
	if s.wlog == nil || s.recovering.Load() {
		return
	}
	b, ok := envelope.AppendMsgJSON(make([]byte, 0, 64+48*len(env.Ops)), env)
	if !ok {
		s.walAppend(sh, op, key, env)
		return
	}
	if err := s.wlog.Append(sh.idx, op, key, b); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// AttachWAL enables durability: subsequent mutating operations are
// appended to l before their responses are acknowledged, and — when
// snapshotEvery > 0 — a full-state checkpoint runs after every
// snapshotEvery-th period-end round. Call before Handler starts
// serving, and follow with Recover to apply whatever state the
// directory already holds. Registers the WAL's observability gauges on
// the server's registry (scraped at GET /v1/metrics).
func (s *ShardedServer) AttachWAL(l *wal.Log, snapshotEvery int) {
	s.wlog = l
	s.snapEvery = snapshotEvery
	s.reg.SetHelp("wal_appends_total", "Records appended to the write-ahead log.")
	s.reg.SetHelp("wal_fsyncs_total", "fsync calls the log has issued.")
	s.reg.SetHelp("wal_bytes_written_total", "Bytes written to the log, including framing.")
	s.reg.SetHelp("wal_replayed_ops", "Operations replayed by the last recovery.")
	s.reg.SetHelp("wal_recovery_seconds", "Wall-clock duration of the last recovery.")
	s.reg.SetHelp("wal_generation", "Current snapshot+log generation number.")
	s.reg.SetHelp("wal_last_fsync_ok", "1 while every append and fsync has succeeded, else 0.")
	s.reg.SetHelp("wal_snapshot_age_periods", "Period-end rounds since the last checkpoint.")
	s.reg.GaugeFunc("wal_appends_total", func() float64 { return float64(l.Stats().Appends) })
	s.reg.GaugeFunc("wal_fsyncs_total", func() float64 { return float64(l.Stats().Fsyncs) })
	s.reg.GaugeFunc("wal_bytes_written_total", func() float64 { return float64(l.Stats().Bytes) })
	s.reg.GaugeFunc("wal_replayed_ops", func() float64 { return float64(l.Stats().Replayed) })
	s.reg.GaugeFunc("wal_recovery_seconds", func() float64 { return l.Stats().RecoveryDuration.Seconds() })
	s.reg.GaugeFunc("wal_generation", func() float64 { return float64(l.Stats().Gen) })
	s.reg.GaugeFunc("wal_last_fsync_ok", func() float64 {
		if l.Stats().LastFsyncOK {
			return 1
		}
		return 0
	})
	s.reg.GaugeFunc("wal_snapshot_age_periods", func() float64 {
		return float64(s.periodEndRounds.Load() - s.lastSnapRound.Load())
	})
}

// Recover rebuilds the server from the attached WAL directory: restore
// the newest snapshot if one exists, then replay every intact log
// record. Must run after AttachWAL and before the handler serves
// traffic; with no WAL attached it is a no-op.
func (s *ShardedServer) Recover() (wal.RecoverStats, error) {
	if s.wlog == nil {
		return wal.RecoverStats{}, nil
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	return s.wlog.Recover(s.restoreSnapshot, s.applyWALRecord)
}

// BootNode turns a freshly built pool into a recovered server; every
// process that serves a node boots through it. The steps run in the
// order recovery depends on. A ring member (member >= 0) mints
// impression ids from its own disjoint namespace, seeded first so
// replayed sales mint the ids the live run did. The node is named
// (id, "" for none). The boot tenant table is installed as epoch 1, so
// a higher config epoch in the log supersedes it and a rebuilt process
// converges to the table the dead one last acknowledged. Last, l (nil
// runs without durability) is attached with the given checkpoint
// cadence and recovered. The caller owns l and closes it.
func BootNode(pool *shard.Pool, member int, id string, tenants []tenant.Config, l *wal.Log, snapshotEvery int) (*ShardedServer, wal.RecoverStats, error) {
	if member >= 0 {
		for i := 0; i < pool.Shards(); i++ {
			pool.Shard(i).Exchange().SeedMemberIDs(member)
		}
	}
	s := NewShardedServer(pool)
	s.SetNodeID(id)
	if len(tenants) > 0 {
		reg, err := tenant.NewRegistry(1, tenants)
		if err != nil {
			return nil, wal.RecoverStats{}, fmt.Errorf("transport: boot tenant table: %w", err)
		}
		s.SetTenants(reg)
	}
	if l == nil {
		return s, wal.RecoverStats{}, nil
	}
	s.AttachWAL(l, snapshotEvery)
	st, err := s.Recover()
	if err != nil {
		return nil, st, fmt.Errorf("transport: recovery: %w", err)
	}
	return s, st, nil
}

// maybeCheckpoint runs the configured checkpoint cadence; called from
// the period-end route wrapper after the response is written. A failed
// checkpoint keeps the previous generation serving recovery — the
// wal_last_fsync_ok gauge and /v1/health surface the condition.
func (s *ShardedServer) maybeCheckpoint() {
	if s.wlog == nil || s.snapEvery <= 0 {
		return
	}
	if s.periodEndRounds.Load()-s.lastSnapRound.Load() < int64(s.snapEvery) {
		return
	}
	_ = s.Checkpoint()
}

// Checkpoint writes a full-state snapshot and rotates the log to a
// fresh generation (truncation at the snapshot point). It quiesces the
// whole server for the duration, taking every lock in the global
// order: periodMu first, then every shard's lock (lockAll).
func (s *ShardedServer) Checkpoint() error {
	if s.wlog == nil {
		return fmt.Errorf("transport: no WAL attached")
	}
	s.periodMu.Lock()
	defer s.periodMu.Unlock()
	defer s.lockAll()()
	// The round caches only need to cover rounds still in the log; the
	// rotation is about to empty it, so keep one entry per map for
	// coordinator retries of the most recent round. Pruning before the
	// write keeps the snapshot identical to the post-checkpoint state.
	for _, sh := range s.shards {
		pruneRounds(sh.startRounds)
		pruneRounds(sh.endRounds)
	}
	if err := s.wlog.Snapshot(s.writeSnapshotLocked); err != nil {
		return err
	}
	s.lastSnapRound.Store(s.periodEndRounds.Load())
	return nil
}

// pruneRounds drops every cached round but the newest.
func pruneRounds(m map[periodKey]*periodRound) {
	var max periodKey
	first := true
	for k := range m {
		if first || k.NowNS > max.NowNS || (k.NowNS == max.NowNS && k.Index > max.Index) {
			max, first = k, false
		}
	}
	for k := range m {
		if k != max {
			delete(m, k)
		}
	}
}

// transportSnapshot is the server's complete durable state at a
// checkpoint: one engine state per shard plus the transport layer's
// own books. Deterministic — every map is serialized in sorted order.
type transportSnapshot struct {
	Engines         []*adserver.State `json:"engines"`
	Shards          []shardSnapshot   `json:"shards"`
	PeriodDedup     []dedupRecord     `json:"period_dedup,omitempty"`
	PeriodSweep     int64             `json:"period_sweep"`
	PeriodEndRounds int64             `json:"period_end_rounds"`

	// Live-migration bookkeeping (see migrate.go): clients handed away,
	// uncommitted extraction blobs, and adopted epochs.
	Moved   []int          `json:"moved,omitempty"`
	Outbox  []outboxRecord `json:"outbox,omitempty"`
	Applied []uint64       `json:"applied,omitempty"`

	// Tenant config at the checkpoint (see tenant.go): the registry is
	// part of the durable state so a snapshot taken after a hot reload
	// restores the reloaded config even though the config_epoch record
	// was truncated with the log. Omitted for legacy servers, keeping
	// pre-tenant snapshots byte-identical.
	ConfigEpoch   uint64          `json:"config_epoch,omitempty"`
	TenantConfigs []tenant.Config `json:"tenant_configs,omitempty"`
}

// outboxRecord is one uncommitted extraction blob, keyed by epoch.
type outboxRecord struct {
	Epoch uint64          `json:"epoch"`
	Blob  json.RawMessage `json:"blob"`
}

// shardSnapshot is one shard's transport-layer state: staged bundles,
// the idempotency window, and the period-round retry caches.
type shardSnapshot struct {
	Staged      []stagedShelf  `json:"staged,omitempty"`
	Dedup       []dedupRecord  `json:"dedup,omitempty"`
	StartRounds []*periodRound `json:"start_rounds,omitempty"`
	EndRounds   []*periodRound `json:"end_rounds,omitempty"`
}

// stagedShelf is one client's staged (sold, not yet downloaded) ads.
type stagedShelf struct {
	Client int     `json:"client"`
	Ads    []AdMsg `json:"ads"`
}

// dedupRecord is one idempotency-window entry in serializable form.
// Client is the owning client id (negative for entries not scoped to a
// client), carried so migration can move a client's window with it.
type dedupRecord struct {
	Key         string `json:"key"`
	PayloadHash uint64 `json:"payload_hash"`
	Status      int    `json:"status"`
	Body        []byte `json:"body"`
	At          int64  `json:"at"`
	Client      int    `json:"client,omitempty"`
}

// dedupEntriesSnapshot serializes a dedup map sorted by key; the
// caller must hold the store's guarding lock (or otherwise own the map).
func dedupEntriesSnapshot(entries map[string]dedupEntry) []dedupRecord {
	out := make([]dedupRecord, 0, len(entries))
	for k, e := range entries {
		out = append(out, dedupRecord{Key: k, PayloadHash: e.payloadHash, Status: e.status, Body: e.body, At: int64(e.at), Client: e.client})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// roundsSnapshot serializes a period-round cache sorted by round.
func roundsSnapshot(m map[periodKey]*periodRound) []*periodRound {
	out := make([]*periodRound, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NowNS != out[j].NowNS {
			return out[i].NowNS < out[j].NowNS
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func roundsRestore(rounds []*periodRound) map[periodKey]*periodRound {
	m := make(map[periodKey]*periodRound, len(rounds))
	for _, r := range rounds {
		m[periodKey{r.NowNS, r.Index}] = r
	}
	return m
}

func dedupEntriesRestore(recs []dedupRecord) map[string]dedupEntry {
	if len(recs) == 0 {
		return nil
	}
	m := make(map[string]dedupEntry, len(recs))
	for _, r := range recs {
		m[r.Key] = dedupEntry{payloadHash: r.PayloadHash, status: r.Status, body: r.Body, at: simclock.Time(r.At), client: r.Client}
	}
	return m
}

// writeSnapshotLocked encodes the full server state; every lock must
// be held (Checkpoint's job).
func (s *ShardedServer) writeSnapshotLocked(w io.Writer) error {
	snap := transportSnapshot{
		Engines:         make([]*adserver.State, len(s.shards)),
		Shards:          make([]shardSnapshot, len(s.shards)),
		PeriodDedup:     dedupEntriesSnapshot(s.periodDedup.entries),
		PeriodSweep:     s.periodSweep,
		PeriodEndRounds: s.periodEndRounds.Load(),
	}
	if reg := s.tenants.Load(); reg != nil {
		snap.ConfigEpoch = reg.Epoch()
		snap.TenantConfigs = reg.Tenants()
	}
	for c := range s.moved {
		snap.Moved = append(snap.Moved, c)
	}
	sort.Ints(snap.Moved)
	for epoch, blob := range s.outbox {
		snap.Outbox = append(snap.Outbox, outboxRecord{Epoch: epoch, Blob: blob})
	}
	sort.Slice(snap.Outbox, func(i, j int) bool { return snap.Outbox[i].Epoch < snap.Outbox[j].Epoch })
	for epoch := range s.applied {
		snap.Applied = append(snap.Applied, epoch)
	}
	sort.Slice(snap.Applied, func(i, j int) bool { return snap.Applied[i] < snap.Applied[j] })
	for i, sh := range s.shards {
		est, err := sh.srv.Snapshot()
		if err != nil {
			return fmt.Errorf("transport: snapshot shard %d: %w", i, err)
		}
		snap.Engines[i] = est
		ss := shardSnapshot{
			Dedup:       dedupEntriesSnapshot(sh.dedup.entries),
			StartRounds: roundsSnapshot(sh.startRounds),
			EndRounds:   roundsSnapshot(sh.endRounds),
		}
		for cid, ads := range sh.staged {
			ss.Staged = append(ss.Staged, stagedShelf{Client: cid, Ads: toAdMsgs(ads)})
		}
		sort.Slice(ss.Staged, func(a, b int) bool { return ss.Staged[a].Client < ss.Staged[b].Client })
		snap.Shards[i] = ss
	}
	return json.NewEncoder(w).Encode(snap)
}

// restoreSnapshot overwrites the server with a checkpointed state.
// Runs single-threaded before serving starts (Recover's restore
// callback), so no locks are taken.
func (s *ShardedServer) restoreSnapshot(r io.Reader) error {
	var snap transportSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("transport: decoding snapshot: %w", err)
	}
	if len(snap.Engines) != len(s.shards) || len(snap.Shards) != len(s.shards) {
		return fmt.Errorf("transport: snapshot has %d engines / %d shards, server has %d",
			len(snap.Engines), len(snap.Shards), len(s.shards))
	}
	for i, sh := range s.shards {
		if err := sh.srv.Restore(snap.Engines[i]); err != nil {
			return fmt.Errorf("transport: restore shard %d: %w", i, err)
		}
		ss := snap.Shards[i]
		sh.staged = make(map[int][]client.CachedAd, len(ss.Staged))
		for _, shelf := range ss.Staged {
			sh.staged[shelf.Client] = fromAdMsgs(shelf.Ads)
		}
		sh.dedup.entries = dedupEntriesRestore(ss.Dedup)
		sh.startRounds = roundsRestore(ss.StartRounds)
		sh.endRounds = roundsRestore(ss.EndRounds)
	}
	s.periodDedup.entries = dedupEntriesRestore(snap.PeriodDedup)
	s.periodSweep = snap.PeriodSweep
	s.periodEndRounds.Store(snap.PeriodEndRounds)
	s.lastSnapRound.Store(snap.PeriodEndRounds)
	s.moved, s.outbox, s.applied = nil, nil, nil
	for _, c := range snap.Moved {
		if s.moved == nil {
			s.moved = make(map[int]bool, len(snap.Moved))
		}
		s.moved[c] = true
	}
	for _, rec := range snap.Outbox {
		if s.outbox == nil {
			s.outbox = make(map[uint64][]byte, len(snap.Outbox))
		}
		s.outbox[rec.Epoch] = rec.Blob
	}
	for _, epoch := range snap.Applied {
		if s.applied == nil {
			s.applied = make(map[uint64]bool, len(snap.Applied))
		}
		s.applied[epoch] = true
	}
	// Install the snapshot's tenant config only when it recorded one: a
	// legacy snapshot must not clobber the registry the caller installed
	// with SetTenants before recovering.
	if snap.ConfigEpoch > 0 || len(snap.TenantConfigs) > 0 {
		reg, err := tenant.NewRegistry(snap.ConfigEpoch, snap.TenantConfigs)
		if err != nil {
			return fmt.Errorf("transport: snapshot tenant config: %w", err)
		}
		s.installTenants(reg)
	}
	return nil
}

// applyWALRecord re-executes one logged operation during recovery;
// Recover's replay callback. Client-op records run through execGroup —
// the same code that produced them — so engine mutations, dedup entries
// and stored response bytes are reproduced exactly.
// Period records re-run the shard's round slice, which rebuilds the
// retry caches and sweeps the dedup windows as the live round did.
func (s *ShardedServer) applyWALRecord(rec wal.Record) error {
	if rec.Shard < 0 || rec.Shard >= len(s.shards) {
		return fmt.Errorf("transport: wal record for shard %d, server has %d", rec.Shard, len(s.shards))
	}
	sh := s.shards[rec.Shard]
	switch rec.Op {
	case opPeriodStart:
		var msg periodMsg
		if err := json.Unmarshal(rec.Body, &msg); err != nil {
			return fmt.Errorf("transport: wal period_start body: %w", err)
		}
		sh.mu.Lock()
		s.periodStartShardLocked(sh, msg)
		sh.mu.Unlock()
	case opPeriodEnd:
		var msg periodMsg
		if err := json.Unmarshal(rec.Body, &msg); err != nil {
			return fmt.Errorf("transport: wal period_end body: %w", err)
		}
		sh.mu.Lock()
		s.periodEndShardLocked(sh, msg)
		sh.mu.Unlock()
	case opMigrateOut:
		var msg migrateOutMsg
		if err := json.Unmarshal(rec.Body, &msg); err != nil {
			return fmt.Errorf("transport: wal migrate_out body: %w", err)
		}
		if _, err := s.migrateOut(msg.Epoch, msg.Clients); err != nil {
			return fmt.Errorf("transport: wal migrate_out replay: %w", err)
		}
	case opMigrateIn:
		if err := s.migrateIn(rec.Body); err != nil {
			return fmt.Errorf("transport: wal migrate_in replay: %w", err)
		}
	case opMigrateCommit:
		var msg migrateCommitMsg
		if err := json.Unmarshal(rec.Body, &msg); err != nil {
			return fmt.Errorf("transport: wal migrate_commit body: %w", err)
		}
		s.migrateCommit(msg.Epoch)
	case opConfigEpoch:
		// Must be matched before the default arm — an unknown op would
		// otherwise be misparsed as a batch envelope. Idempotent by
		// epoch: a record at or below the snapshot's epoch (the
		// checkpoint already carries the reloaded config) is a no-op.
		var msg ConfigMsg
		if err := json.Unmarshal(rec.Body, &msg); err != nil {
			return fmt.Errorf("transport: wal config_epoch body: %w", err)
		}
		var curEpoch uint64
		if cur := s.tenants.Load(); cur != nil {
			curEpoch = cur.Epoch()
		}
		if msg.Epoch <= curEpoch {
			return nil
		}
		reg, err := tenant.NewRegistry(msg.Epoch, msg.Tenants)
		if err != nil {
			return fmt.Errorf("transport: wal config_epoch replay: %w", err)
		}
		s.installTenants(reg) // single-threaded during recovery
	default:
		var env batchMsg
		if err := json.Unmarshal(rec.Body, &env); err != nil {
			return fmt.Errorf("transport: wal %s body: %w", rec.Op, err)
		}
		idxs := make([]int, len(env.Ops))
		for i := range idxs {
			idxs[i] = i
		}
		s.execGroup(sh, &env, idxs, nil, make([]stored, len(env.Ops)))
	}
	return nil
}

package transport

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/auction"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// One way to execute a device op. Every client-scoped request — the
// five per-op endpoints, each sub-op of a /v1/batch envelope in either
// codec, and each op of a replayed WAL record — is an op of an
// envelope, and execGroup is the only code that runs one: under the
// shard lock it applies the idempotency policy (dedupStore.do) per
// keyed op, dispatches to the engine, and appends the group's WAL
// record. Its currency is the stored response; the wire forms differ
// only in how they decode the envelope and render that.

// noClient is the client id of requests scoped to no client: period
// rounds' dedup entries, and a cancellation query from a pre-sharding
// device that names none.
const noClient = -1

// oneOp indexes the single op of a per-op endpoint's envelope.
var oneOp = []int{0}

// opDecoder parses a per-op endpoint's request into the one-op envelope
// it stands for: the envelope's client and timestamp, the op, and wire —
// the request bytes the client's idempotency fingerprint covers (the
// body of a POST, the request URI of a bundle GET; nil for the unkeyed
// cancellation read). ok=false means the decoder already wrote a 4xx.
type opDecoder func(w http.ResponseWriter, r *http.Request) (client int, nowNS int64, op BatchOp, wire []byte, ok bool)

// handleOp serves a per-op endpoint as a one-op envelope: the tenant
// header is the envelope's tenant, the Idempotency-Key header the op's
// key. Refusal precedence, shared with /v1/batch: malformed request 400,
// tenant mismatch 403, malformed key 400 — then the executor's 409, 421
// and 429.
func (s *ShardedServer) handleOp(decode opDecoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client, nowNS, op, wire, ok := decode(w, r)
		if !ok {
			return
		}
		// The wire buffer is pooled; it is only hashed, so recycling it
		// once the response is written is safe.
		defer putBodyBuf(wire)
		ops := [1]BatchOp{op}
		env := batchMsg{Client: client, NowNS: nowNS, Tenant: r.Header.Get(TenantHeader), Ops: ops[:]}
		if herr := s.checkEnvelopeTenant(&env); herr != nil {
			http.Error(w, herr.msg, herr.status)
			return
		}
		sh := s.shardFor(client)
		sh.requests.Inc()
		if op.Op != OpCancelled { // an idempotent read ignores any key, and always has
			if ops[0].Key, ok = idemKey(w, r); !ok {
				return
			}
		}
		var out [1]stored
		s.execGroup(sh, &env, oneOp, wire, out[:])
		writeStored(w, out[0])
	}
}

func (s *ShardedServer) decodeSlot(w http.ResponseWriter, r *http.Request) (int, int64, BatchOp, []byte, bool) {
	m, body, ok := scanReq(s, w, r, scanSlotMsg)
	return m.Client, m.NowNS, BatchOp{Op: OpSlot}, body, ok
}

func (s *ShardedServer) decodeReport(w http.ResponseWriter, r *http.Request) (int, int64, BatchOp, []byte, bool) {
	m, body, ok := scanReq(s, w, r, scanReportMsg)
	return m.Client, m.NowNS, BatchOp{Op: OpReport, Impression: m.Impression}, body, ok
}

func (s *ShardedServer) decodeOnDemand(w http.ResponseWriter, r *http.Request) (int, int64, BatchOp, []byte, bool) {
	m, body, ok := scanReq(s, w, r, scanOnDemandMsg)
	return m.Client, m.NowNS, BatchOp{Op: OpOnDemand, Categories: m.Categories, NoRescue: m.NoRescue}, body, ok
}

// decodeBundle parses GET /v1/bundle. The download is a mutating GET:
// dedup by key lets a device whose response was lost retry and receive
// the same ads instead of finding the shelf empty.
func decodeBundle(w http.ResponseWriter, r *http.Request) (int, int64, BatchOp, []byte, bool) {
	cid, ok := intParam(w, r, "client")
	if !ok {
		return 0, 0, BatchOp{}, nil, false
	}
	// now_ns stamps the dedup entry; absent (old clients) means the
	// entry is swept at the first period boundary, which is safe.
	nowNS, _ := strconv.ParseInt(r.URL.Query().Get("now_ns"), 10, 64)
	// The URI is the idempotency payload: a key reused for a different
	// client or instant is a conflict, not a replay.
	return cid, nowNS, BatchOp{Op: OpBundle}, []byte(r.URL.RequestURI()), true
}

func (s *ShardedServer) decodeCancelled(w http.ResponseWriter, r *http.Request) (int, int64, BatchOp, []byte, bool) {
	nowNS, ok := intParam(w, r, "now_ns")
	if !ok {
		return 0, 0, BatchOp{}, nil, false
	}
	// Impression ids are scoped per shard, so the owning client must be
	// identified to route the query. A single-shard server tolerates the
	// omission for compatibility with old clients.
	q := r.URL.Query()
	cid := noClient
	if raw := q.Get("client"); raw != "" {
		var err error
		if cid, err = strconv.Atoi(raw); err != nil {
			http.Error(w, fmt.Sprintf("bad client %q", raw), http.StatusBadRequest)
			return 0, 0, BatchOp{}, nil, false
		}
	} else if len(s.shards) > 1 {
		http.Error(w, "missing client parameter (required with >1 shard)", http.StatusBadRequest)
		return 0, 0, BatchOp{}, nil, false
	}
	// Empty parts are skipped, as the query form always allowed; the
	// reply preserves query order.
	var ids []int64
	for _, part := range strings.Split(q.Get("ids"), ",") {
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad id %q", part), http.StatusBadRequest)
			return 0, 0, BatchOp{}, nil, false
		}
		ids = append(ids, id)
	}
	return cid, int64(nowNS), BatchOp{Op: OpCancelled, IDs: ids}, nil, true
}

// execGroup executes the ops of env at idxs — all owned by shard sh —
// in order, writing each op's stored-form outcome to out[i]. wire is
// non-nil exactly when env is a per-op endpoint's one-op envelope: the
// raw request bytes stand in for the canonical form in the op's
// fingerprint, and the WAL record keeps the endpoint's kind and key.
//
// The whole group runs under sh.mu, which guards everything the shard
// serves — engine, staged shelf, dedup window: one wake-up's worth of
// work costs one lock round, not one per op, and the group's record is
// appended before the lock is released.
func (s *ShardedServer) execGroup(sh *shardState, env *batchMsg, idxs []int, wire []byte, out []stored) {
	// Deferred unlock: the WAL append may panic (fail-stop, or a crash
	// emulation hook), and the lock must not stay held on that path.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	logging := s.wlog != nil && !s.recovering.Load()
	var logged []BatchOp
	for _, i := range idxs {
		op := &env.Ops[i]
		r := s.execOp(sh, env, op, wire)
		out[i] = r
		// The WAL records exactly what executed here and now. Replays,
		// key conflicts, shed (429) and moved-client (421) ops mutated
		// nothing — if a shed op's retry later succeeds, that retry is
		// logged at its own position, and replaying the original too
		// would run it twice. Reads (cancelled) have nothing to replay.
		// A rejected report (400) is logged: it still taught the claim
		// table the id, and its response is stored.
		if logging && op.Op != OpCancelled && !r.replayed &&
			r.status != http.StatusTooManyRequests && r.status != http.StatusConflict &&
			r.status != http.StatusMisdirectedRequest {
			if logged == nil {
				logged = make([]BatchOp, 0, len(idxs))
			}
			logged = append(logged, *op)
		}
	}
	if len(logged) > 0 {
		kind, key := opBatch, ""
		if wire != nil {
			kind, key = logged[0].Op, logged[0].Key
		}
		s.walAppendEnvelope(sh, kind, key, &batchMsg{Client: env.Client, NowNS: env.NowNS, Ops: logged})
	}
}

// execOp runs one op under the idempotency policy of its endpoint;
// sh.mu must be held. The fingerprint is the sequential
// request's — the same method, path and payload bytes the
// one-request-per-op client sends — so a dedup entry written through
// any wire form replays on every other: a device may deliver a keyed op
// on its endpoint, lose the reply, and retry it inside an envelope (or
// the reverse, or across a restart) and still never double-execute.
func (s *ShardedServer) execOp(sh *shardState, env *batchMsg, op *BatchOp, wire []byte) stored {
	client, now := env.ClientOf(op), env.NowOf(op)
	exec := func() stored { return s.execOpLocked(sh, client, now, op) }
	// Cancellation queries are idempotent reads: any key is ignored
	// rather than stored.
	if op.Key == "" || op.Op == OpCancelled {
		return exec()
	}
	return sh.dedup.do(op.Key, opFingerprint(client, now, op, wire), simclock.Time(now), client, exec)
}

// opRequest renders op as the one-request-per-op form it stands for:
// the method and path of its endpoint, and — appended to dst — the
// payload an idempotency fingerprint covers, a POST's JSON body or a
// GET's request URI. It is the one table of that form: the device's
// per-op sender ships exactly these bytes and opFingerprint hashes them,
// so what a keyed op hashes as and what the shipped client sends cannot
// drift apart.
func opRequest(dst []byte, client int, now int64, op *BatchOp) (method, path string, payload []byte) {
	switch op.Op {
	case OpSlot:
		return http.MethodPost, "/v1/slot", appendSlotMsg(dst, client, now)
	case OpReport:
		return http.MethodPost, "/v1/report", appendReportMsg(dst, client, op.Impression, now)
	case OpOnDemand:
		return http.MethodPost, "/v1/ondemand", onDemandBody(dst, onDemandMsg{Client: client, NowNS: now, Categories: op.Categories, NoRescue: op.NoRescue})
	case OpBundle:
		return http.MethodGet, "/v1/bundle", appendBundleURI(dst, client, now)
	case OpCancelled:
		return http.MethodGet, "/v1/cancelled", appendCancelledURI(dst, client, op.IDs, now)
	}
	return "", "", nil
}

// opFingerprint hashes an op as the sequential request it stands for.
// wire, when the request came in on that endpoint, is its payload
// verbatim and replaces the canonical rendering.
func opFingerprint(client int, now int64, op *BatchOp, wire []byte) uint64 {
	var buf [192]byte // the canonical forms fit unless an op carries a long category list
	method, path, payload := opRequest(buf[:0], client, now, op)
	if wire != nil {
		payload = wire
	}
	return requestHash(method, path, payload)
}

// execOpLocked dispatches one op to the engine; sh.mu must be held. A
// client this node has handed away is refused before anything else, on
// every kind.
func (s *ShardedServer) execOpLocked(sh *shardState, client int, now int64, op *BatchOp) stored {
	if herr := s.movedErr(client); herr != nil {
		return refused(herr)
	}
	switch op.Op {
	case OpSlot:
		return acked(s.slotLocked(sh, client, now))
	case OpReport:
		return acked(s.reportLocked(sh, op.Impression, now))
	case OpOnDemand:
		reply, herr := s.onDemandLocked(sh, client, now, op.Categories, op.NoRescue)
		if herr != nil {
			return refused(herr)
		}
		return okReply(onDemandReplyBody(reply))
	case OpCancelled:
		return okReply(cancelledReplyBody(s.cancelledLocked(sh, op.IDs, simclock.Time(now))))
	case OpBundle:
		ads := sh.staged[client]
		delete(sh.staged, client)
		return okReply(bundleReplyBody(BundleReply{Ads: toAdMsgs(ads)}))
	}
	// Unreachable: unknown kinds are refused before grouping.
	return refused(errf(http.StatusBadRequest, "unknown batch op %q", op.Op))
}

// slotLocked observes a slot firing; sh.mu must be held.
func (s *ShardedServer) slotLocked(sh *shardState, client int, nowNS int64) *httpError {
	if s.shedding(sh) {
		sh.shed.Inc()
		herr := errf(http.StatusTooManyRequests, "shard overloaded: slot observation shed")
		herr.retryAfter = retryAfterSecs(sh.srv.OpenBook(), s.MaxOpenBook)
		return herr
	}
	if herr := s.admitLocked(sh, client, nowNS, "slot observation"); herr != nil {
		return herr
	}
	sh.srv.ObserveSlot(client)
	return nil
}

// reportLocked bills a display; sh.mu must be held. Reports are never
// shed: they bill sold inventory and shrink the open book, so refusing
// them under load would deepen the overload.
func (s *ShardedServer) reportLocked(sh *shardState, impression, nowNS int64) *httpError {
	if err := sh.srv.ReportDisplay(auction.ImpressionID(impression), simclock.Time(nowNS)); err != nil {
		return errf(http.StatusBadRequest, "%s", err.Error())
	}
	return nil
}

// cancelledLocked answers which of the ids are known claimed; sh.mu
// must be held. The reply preserves query order.
func (s *ShardedServer) cancelledLocked(sh *shardState, ids []int64, now simclock.Time) CancelledReply {
	var reply CancelledReply
	for _, id := range ids {
		if sh.srv.CancellationKnown(auction.ImpressionID(id), now) {
			reply.Cancelled = append(reply.Cancelled, id)
		}
	}
	return reply
}

// onDemandLocked runs the cache-miss fallback (adserver.ServeMiss)
// behind the shedding and admission checks; sh.mu must be held.
func (s *ShardedServer) onDemandLocked(sh *shardState, client int, nowNS int64, categories []string, noRescue bool) (OnDemandReply, *httpError) {
	cats := make([]trace.Category, len(categories))
	for i, c := range categories {
		cats[i] = trace.Category(c)
	}
	now := simclock.Time(nowNS)
	if s.shedding(sh) {
		// Fresh sales grow the open book; shed them until it drains.
		// The client's fallback is its cache or a house ad.
		sh.shed.Inc()
		herr := errf(http.StatusTooManyRequests, "shard overloaded: on-demand sale shed")
		herr.retryAfter = retryAfterSecs(sh.srv.OpenBook(), s.MaxOpenBook)
		return OnDemandReply{}, herr
	}
	if herr := s.admitLocked(sh, client, nowNS, "on-demand sale"); herr != nil {
		return OnDemandReply{}, herr
	}
	m := sh.srv.ServeMiss(now, client, cats, !noRescue)
	reply := OnDemandReply{Impression: int64(m.Impression), Rescued: m.Rescued}
	if m.Rescued {
		reply.TopUp = toAdMsgs(m.TopUp)
	}
	return reply, nil
}

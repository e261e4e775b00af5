package transport

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/adserver"
	"repro/internal/client"
	"repro/internal/envelope"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// v1Endpoints lists every protocol path, for metrics pre-registration
// (unknown paths land in the middleware's "other" bucket).
var v1Endpoints = []string{
	"/v1/period/start", "/v1/period/end", "/v1/bundle", "/v1/slot",
	"/v1/report", "/v1/cancelled", "/v1/ondemand", "/v1/batch",
	"/v1/ledger", "/v1/stats", "/v1/health", "/v1/metrics",
	"/v1/admin/migrate/out", "/v1/admin/migrate/in",
	"/v1/admin/migrate/commit", "/v1/admin/clients",
	"/v1/admin/config",
}

// ShardedServer serves the transport protocol over N independent
// ad-server shards, each behind its own lock. Requests carrying a
// client id (bundle, slot, report, cancelled, on-demand) touch exactly
// one shard — its lock — so the serving path scales with cores instead
// of serializing behind a single global mutex. Period start/end fan out
// to all shards concurrently and fan back in (a barrier over per-shard
// rounds); the merged /v1/ledger, /v1/stats and tenant-health views
// aggregate across shards one lock at a time, never pausing the whole
// fleet. Each fan-in calls its view's one merge (PeriodStartReply.Add,
// PeriodEndReply.Add, auction.Ledger.Add, MergeStats,
// TenantHealth.Add), the same one the cluster router runs over nodes.
//
// Replicas of an impression only ever live on clients of the shard that
// sold it (see internal/shard), so routing by client id also routes
// every impression-carrying request to the shard that owns that
// impression's state.
//
// Every endpoint is instrumented through the internal/obs registry
// (scraped at GET /v1/metrics): per-endpoint request counts by status
// class, latency and response-size histograms, byte totals and
// idempotency-replay counts, plus per-shard request/shed counters and
// open-book/staged/dedup gauges.
type ShardedServer struct {
	shards []*shardState
	route  func(clientID int) int
	reg    *obs.Registry
	nodeID string

	// MaxOpenBook, when positive, turns on load shedding: a shard whose
	// open impression book exceeds the bound answers slot observations
	// and on-demand requests with 429 + Retry-After until the book
	// drains (display reports and bundle downloads are never shed —
	// they shrink the book). Set before serving; not safe to change
	// while requests are in flight.
	MaxOpenBook int

	// MaxBatchOps bounds the sub-operations one POST /v1/batch envelope
	// may carry; zero means DefaultMaxBatchOps. Set before serving.
	MaxBatchOps int

	// AdminToken, when non-empty, gates the /v1/admin/* endpoints behind
	// a shared bearer token (Authorization: Bearer <token>). Set before
	// serving; the client-facing protocol is unaffected.
	AdminToken string

	// Live migration state (see migrate.go). adminMu serializes whole
	// migration operations and config epochs. moved marks clients handed
	// to another node — their requests are refused with 421 so nothing
	// mutates state the new owner already took. outbox keeps each
	// extraction's blob until the epoch commits, and applied remembers
	// adopted epochs; both make the transfer endpoints idempotent across
	// retries and crash recovery. The maps are written only under
	// adminMu and every shard lock (lockAll), so either one of those
	// locks is enough to read them: a request reads moved under its own
	// shard's lock.
	adminMu sync.Mutex
	moved   map[int]bool
	outbox  map[uint64][]byte
	applied map[uint64]bool

	// periodDedup dedups the coordinator's period start/end calls,
	// which fan out to every shard and so cannot live in one shard's
	// store. periodMu guards it and periodSweep (the latest sweep
	// cutoff, kept for the snapshot), and is held across a whole period
	// round: shard 0's slice of a period-end round sweeps the store.
	periodMu    sync.Mutex
	periodDedup dedupStore
	periodSweep int64

	// Batch instrumentation: envelope sizes, sub-ops by kind, and the
	// round trips batching saved versus one request per op.
	batchSize    *obs.Histogram
	batchSaved   *obs.Counter
	batchSubops  map[string]*obs.Counter
	batchInvalid *obs.Counter

	// wireFallback counts request bodies the strict wire decoders
	// declined and encoding/json decoded instead (see wirejson.go). The
	// shipped client's canonical rendering never lands here, so on a
	// fleet of them it reads 0; anything else is foreign, hand-written or
	// hostile traffic — served correctly, just not on the fast path.
	wireFallback *obs.Counter

	// Multi-tenant serving (see tenant.go). tenants is the immutable
	// registry behind the per-tenant admission, attribution and config
	// epochs; nil means legacy single-tenant serving. tm carries the
	// per-tenant counters resolved for the current registry. Both are
	// swapped together under every shard lock (SetTenants/ApplyConfig),
	// so a request never observes a half-installed config.
	tenants atomic.Pointer[tenant.Registry]
	tm      atomic.Pointer[tenantMetrics]

	// Durability (see durable.go). A nil wlog means the WAL is off and
	// every durability hook is a no-op. recovering suppresses appends
	// and load shedding while Recover replays the log; the round
	// counters drive the snapshot cadence and the health report's
	// snapshot age.
	wlog            *wal.Log
	snapEvery       int
	recovering      atomic.Bool
	periodEndRounds atomic.Int64
	lastSnapRound   atomic.Int64
}

// shardState is one shard's serving state: the single-threaded engine,
// the per-client bundles staged for download, the idempotency-dedup
// window for the shard's mutating requests, and the shard's slice of
// the metrics registry. One lock, mu, guards all of it: an op takes it
// once, executes, and appends its WAL record before releasing it, so
// each shard's log order is its execution order.
type shardState struct {
	idx int // position in ShardedServer.shards, stamped on WAL records
	mu  sync.Mutex
	srv *adserver.Server

	// staged holds each client's sold-but-not-downloaded bundle.
	staged map[int][]client.CachedAd

	dedup dedupStore

	// startRounds/endRounds cache the outcome of this shard's slice of
	// every period round in the current WAL generation (pruned to the
	// latest round at each checkpoint). A repeat of a
	// cached round — a coordinator retry after a lost reply, or a WAL
	// replay — returns the cached outcome instead of re-running it, so
	// period rounds are exactly-once per shard even when the
	// server-wide period dedup window was lost with the process, and
	// replaying a log is idempotent.
	startRounds map[periodKey]*periodRound
	endRounds   map[periodKey]*periodRound

	requests *obs.Counter // client-scoped requests routed here
	shed     *obs.Counter // 429s this shard answered
}

// NewShardedServer adapts a shard pool to HTTP. The pool's stable
// client partition decides request routing.
func NewShardedServer(pool *shard.Pool) *ShardedServer {
	servers := make([]*adserver.Server, pool.Shards())
	for i := range servers {
		servers[i] = pool.Shard(i)
	}
	return newSharded(servers, pool.IndexFor)
}

// newSharded wraps pre-built shards with an explicit routing function
// (route must return an index in [0, len(servers))).
func newSharded(servers []*adserver.Server, route func(clientID int) int) *ShardedServer {
	s := &ShardedServer{
		shards: make([]*shardState, len(servers)),
		route:  route,
		reg:    obs.NewRegistry(),
	}
	s.reg.SetHelp("shard_requests_total", "Client-scoped requests routed to the shard.")
	s.reg.SetHelp("shard_shed_total", "Requests the shard answered 429 under load shedding.")
	s.reg.SetHelp("shard_open_book", "Open (sold, undisplayed, unexpired) impressions on the shard.")
	s.reg.SetHelp("shard_staged_ads", "Bundle ads staged for download on the shard.")
	s.reg.SetHelp("shard_dedup_keys", "Live idempotency-dedup entries on the shard.")
	s.reg.SetHelp("batch_ops", "Sub-operations per accepted /v1/batch envelope.")
	s.reg.SetHelp("batch_subops_total", "Batch sub-operations received, by op kind (invalid = unknown kind or malformed key).")
	s.reg.SetHelp("batch_round_trips_saved_total", "HTTP round trips batching avoided: sub-ops beyond the first of each accepted envelope.")
	s.batchSize = s.reg.Histogram("batch_ops")
	s.batchSaved = s.reg.Counter("batch_round_trips_saved_total")
	s.batchSubops = make(map[string]*obs.Counter, len(envelope.Kinds))
	for _, k := range envelope.Kinds {
		s.batchSubops[k] = s.reg.Counter("batch_subops_total", "op", k)
	}
	s.batchInvalid = s.reg.Counter("batch_subops_total", "op", "invalid")
	s.reg.SetHelp("transport_wire_fallback_total", "Request bodies the strict wire decoders declined and encoding/json decoded instead.")
	s.wireFallback = s.reg.Counter("transport_wire_fallback_total")
	for i, srv := range servers {
		sh := &shardState{
			idx: i, srv: srv, staged: make(map[int][]client.CachedAd),
			startRounds: make(map[periodKey]*periodRound),
			endRounds:   make(map[periodKey]*periodRound),
		}
		label := strconv.Itoa(i)
		sh.requests = s.reg.Counter("shard_requests_total", "shard", label)
		sh.shed = s.reg.Counter("shard_shed_total", "shard", label)
		// Gauge callbacks run at scrape time only; each takes its
		// shard's lock briefly, never more than one at once.
		s.reg.GaugeFunc("shard_open_book", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(sh.srv.OpenBook())
		}, "shard", label)
		s.reg.GaugeFunc("shard_staged_ads", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(sh.stagedAdsLocked())
		}, "shard", label)
		s.reg.GaugeFunc("shard_dedup_keys", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(len(sh.dedup.entries))
		}, "shard", label)
		s.shards[i] = sh
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedServer) Shards() int { return len(s.shards) }

// SetNodeID names this server instance for multi-node deployments: the
// id is surfaced in /v1/health (node_id) and as a constant
// adserver_node_info{node=...} gauge in /v1/metrics, so scrapes from a
// cluster are distinguishable. Set before serving; not safe to change
// while requests are in flight.
func (s *ShardedServer) SetNodeID(id string) {
	s.nodeID = id
	if id == "" {
		return
	}
	s.reg.SetHelp("adserver_node_info", "Constant 1 carrying this instance's node id as a label.")
	s.reg.GaugeFunc("adserver_node_info", func() float64 { return 1 }, "node", id)
}

// Registry exposes the server's metrics registry (the same one scraped
// at GET /v1/metrics), for debug listeners, experiments and tests.
func (s *ShardedServer) Registry() *obs.Registry { return s.reg }

// StagedAds returns the total number of staged (not yet downloaded)
// bundle ads across shards, for memory-bound monitoring and tests.
func (s *ShardedServer) StagedAds() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.stagedAdsLocked()
		sh.mu.Unlock()
	}
	return total
}

// stagedAdsLocked counts the shard's staged ads; sh.mu must be held.
func (sh *shardState) stagedAdsLocked() int {
	n := 0
	for _, ads := range sh.staged {
		n += len(ads)
	}
	return n
}

// shardFor resolves the shard owning a client.
func (s *ShardedServer) shardFor(clientID int) *shardState {
	i := s.route(clientID)
	if i < 0 || i >= len(s.shards) {
		i = 0
	}
	return s.shards[i]
}

// Handler returns the HTTP handler implementing the protocol: the
// endpoint mux behind the protocol-version gate, wrapped in the metrics
// middleware so every request (including 426s and unknown paths) is
// measured.
func (s *ShardedServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/period/start", handlePeriod(s, s.execPeriodStart))
	periodEnd := handlePeriod(s, s.execPeriodEnd)
	mux.HandleFunc("POST /v1/period/end", func(w http.ResponseWriter, r *http.Request) {
		periodEnd(w, r)
		// Checkpoint cadence rides the period boundary, after the reply
		// is on the wire: a crash mid-checkpoint leaves the previous
		// snapshot+log generation intact.
		s.maybeCheckpoint()
	})
	mux.HandleFunc("GET /v1/bundle", s.handleOp(decodeBundle))
	mux.HandleFunc("POST /v1/slot", s.handleOp(s.decodeSlot))
	mux.HandleFunc("POST /v1/report", s.handleOp(s.decodeReport))
	mux.HandleFunc("GET /v1/cancelled", s.handleOp(s.decodeCancelled))
	mux.HandleFunc("POST /v1/ondemand", s.handleOp(s.decodeOnDemand))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/ledger", handle(s.decodeLedger, s.execLedger))
	mux.HandleFunc("GET /v1/stats", handle(noReq, s.execStats))
	mux.HandleFunc("GET /v1/health", handle(noReq, s.execHealth))
	mux.Handle("GET /v1/metrics", s.reg.Handler())
	mux.HandleFunc("POST /v1/admin/migrate/out", s.admin(handle(jsonReq[migrateOutMsg], s.execMigrateOut)))
	mux.HandleFunc("POST /v1/admin/migrate/in", s.admin(handle(jsonReq[json.RawMessage], s.execMigrateIn)))
	mux.HandleFunc("POST /v1/admin/migrate/commit", s.admin(handle(jsonReq[migrateCommitMsg], s.execMigrateCommit)))
	mux.HandleFunc("GET /v1/admin/clients", s.admin(handle(noReq, s.execAdminClients)))
	mux.HandleFunc("POST /v1/admin/config", s.admin(handle(jsonReq[ConfigMsg], s.execConfig)))
	return obs.Middleware(s.reg, versionMiddleware(mux), v1Endpoints...)
}

// admin gates an /v1/admin/* handler behind the shared bearer token
// (no-op when AdminToken is unset). Admin calls are node-to-node or
// operator traffic; devices never see these paths.
func (s *ShardedServer) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.AdminToken != "" && r.Header.Get("Authorization") != "Bearer "+s.AdminToken {
			http.Error(w, "missing or invalid admin token", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// shedding reports whether a shard is over its open-book bound. Callers
// must hold sh.mu. Recovery replays every logged op regardless of load
// — a replayed op already executed once, so shedding it would diverge
// from the pre-crash state.
func (s *ShardedServer) shedding(sh *shardState) bool {
	if s.recovering.Load() {
		return false
	}
	return s.MaxOpenBook > 0 && sh.srv.OpenBook() > s.MaxOpenBook
}

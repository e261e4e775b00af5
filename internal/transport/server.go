// Package transport exposes the ad server over HTTP and provides the
// matching device-side client, turning the in-process engine into the
// deployable split the paper describes: prediction state and the ad
// cache live on the phone; auctions, admission, overbooked assignment,
// claims and billing live in the ad service.
//
// The protocol (all JSON over POST/GET):
//
//	POST /v1/period/start   {now_ns, index, of_day, weekend}  -> per-client bundles staged server-side
//	GET  /v1/bundle?client=N&now_ns=T                         -> the client's pending bundle (download)
//	POST /v1/slot           {client, now_ns}                  -> observe a slot (predictor training)
//	POST /v1/report         {client, impression, now_ns}      -> display report (billing + claims)
//	GET  /v1/cancelled?client=N&ids=1,2,3&now_ns=T            -> which of the ids are claimed, per sync policy
//	POST /v1/ondemand       {client, now_ns, categories}      -> rescue or fresh sale for a cache miss
//	POST /v1/batch          {client, now_ns, ops:[...]}       -> one wake-up's sub-ops in a single envelope
//	POST /v1/period/end     {now_ns, index, of_day, weekend}  -> train predictors, sweep expiries
//	GET  /v1/ledger                                            -> exchange ledger snapshot (merged across shards)
//	GET  /v1/stats                                             -> ops snapshot (merged across shards)
//	GET  /v1/health                                            -> per-shard load + key runtime gauges
//	GET  /v1/metrics                                           -> Prometheus text exposition (see internal/obs)
//
// POST /v1/batch is the coalesced form of the client-scoped endpoints:
// an ordered list of sub-operations (slot, report, ondemand, cancelled,
// bundle), each carrying its own idempotency key, executed per shard
// under a single lock acquisition and answered per-op — the envelope
// succeeds whenever it was well-formed, and a client retries only the
// sub-ops that failed. The envelope is also the server's one internal
// form: the per-op endpoints execute as one-op envelopes through the
// same executor. See ops.go, batch.go and DESIGN.md §5c.
//
// Every request the clients send carries X-AdPrefetch-Version with the
// protocol major version (currently 1); the server echoes its own
// version on every response and refuses a mismatched major with 426
// Upgrade Required. Requests without the header are accepted for
// compatibility with pre-versioning clients and plain scrapers.
//
// Timestamps ride the virtual clock (nanoseconds since the simulation
// epoch) so the transport works identically under test harnesses and
// live deployments that map it to wall time.
//
// One server adapter implements the protocol: ShardedServer partitions
// clients across N single-threaded engines, each behind its own lock, so
// the serving path scales with cores. NewServer builds the one-shard
// case (one engine, one lock, one shard per process).
package transport

import (
	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/predict"
	"repro/internal/simclock"
)

// NewServer adapts a single adserver.Server to HTTP as a one-shard
// ShardedServer: the engine is single-threaded, so all requests
// serialize on its one lock (one ad-server shard per process, as in the
// scalability table). For a multi-core serving path, see
// NewShardedServer.
func NewServer(srv *adserver.Server) *ShardedServer {
	return newSharded([]*adserver.Server{srv}, func(int) int { return 0 })
}

// MaxBodyBytes bounds every request body the service reads: a node
// (readBody) refuses a longer one with 400, and so does the cluster
// router, which never forwards any of it.
const MaxBodyBytes = 1 << 20

// Wire DTOs.

type periodMsg struct {
	NowNS   int64 `json:"now_ns"`
	Index   int   `json:"index"`
	OfDay   int   `json:"of_day"`
	Weekend bool  `json:"weekend"`
}

func (m periodMsg) period() predict.Period {
	return predict.Period{Index: m.Index, OfDay: m.OfDay, Weekend: m.Weekend}
}

// AdMsg is one cached-ad entry on the wire.
type AdMsg struct {
	ID         int64  `json:"id"`
	DeadlineNS int64  `json:"deadline_ns"`
	Tie        uint64 `json:"tie"`
}

func toAdMsgs(ads []client.CachedAd) []AdMsg {
	out := make([]AdMsg, len(ads))
	for i, a := range ads {
		out[i] = AdMsg{ID: int64(a.ID), DeadlineNS: int64(a.Deadline), Tie: a.Tie}
	}
	return out
}

func fromAdMsgs(msgs []AdMsg) []client.CachedAd {
	out := make([]client.CachedAd, len(msgs))
	for i, m := range msgs {
		out[i] = client.CachedAd{
			ID:       auction.ImpressionID(m.ID),
			Deadline: simclock.Time(m.DeadlineNS),
			Tie:      m.Tie,
		}
	}
	return out
}

type slotMsg struct {
	Client int   `json:"client"`
	NowNS  int64 `json:"now_ns"`
}

type reportMsg struct {
	Client     int   `json:"client"`
	Impression int64 `json:"impression"`
	NowNS      int64 `json:"now_ns"`
}

type onDemandMsg struct {
	Client     int      `json:"client"`
	NowNS      int64    `json:"now_ns"`
	Categories []string `json:"categories,omitempty"`

	// NoRescue asks the server to skip the rescue path and go straight
	// to a fresh sale: the client-side delivery policy (core.Config
	// NoRescue) expressed on the wire.
	NoRescue bool `json:"no_rescue,omitempty"`
}

// OnDemandReply is the fallback-path response.
type OnDemandReply struct {
	Impression int64   `json:"impression"` // 0 = house ad (nothing sold)
	Rescued    bool    `json:"rescued"`
	TopUp      []AdMsg `json:"top_up,omitempty"`
}

// BundleReply carries a staged prefetch bundle.
type BundleReply struct {
	Ads []AdMsg `json:"ads"`
}

// CancelledReply lists which queried impressions are known claimed.
type CancelledReply struct {
	Cancelled []int64 `json:"cancelled"`
}

// PeriodStartReply summarizes the round (summed across shards).
type PeriodStartReply struct {
	PredictedSlots float64 `json:"predicted_slots"`
	Admitted       int     `json:"admitted"`
	Sold           int     `json:"sold"`
	Placed         int     `json:"placed"`
	Replicas       int     `json:"replicas"`
	BundledClients int     `json:"bundled_clients"`
}

// Add accumulates o into r, field by field: the one period-start sum,
// over shards on a node (execPeriodStart) and over nodes at the router,
// so a new field is totalled at every layer or at none.
func (r *PeriodStartReply) Add(o PeriodStartReply) {
	r.PredictedSlots += o.PredictedSlots
	r.Admitted += o.Admitted
	r.Sold += o.Sold
	r.Placed += o.Placed
	r.Replicas += o.Replicas
	r.BundledClients += o.BundledClients
}

// periodStartPart is one shard's round as its share of the reply.
func periodStartPart(st adserver.PeriodStats, bundled int) PeriodStartReply {
	return PeriodStartReply{
		PredictedSlots: st.PredictedSlots,
		Admitted:       st.Admitted,
		Sold:           st.Sold,
		Placed:         st.Placed,
		Replicas:       st.Replicas,
		BundledClients: bundled,
	}
}

// PeriodEndReply reports the sweep outcome (summed across shards).
type PeriodEndReply struct {
	Expired int `json:"expired"`
}

// Add accumulates o into r: the one period-end sum, over shards on a
// node (execPeriodEnd) and over nodes at the router.
func (r *PeriodEndReply) Add(o PeriodEndReply) {
	r.Expired += o.Expired
}

// ShardHealth is one shard's load snapshot.
type ShardHealth struct {
	Shard     int  `json:"shard"`
	OpenBook  int  `json:"open_book"`
	StagedAds int  `json:"staged_ads"`
	DedupKeys int  `json:"dedup_keys"`
	Shedding  bool `json:"shedding"`

	// Requests counts client-scoped requests routed to this shard since
	// start (from the metrics registry).
	Requests int64 `json:"requests"`
}

// NodeHealth is one node's slice of a merged cluster health reply: its
// member id and base URL, the member lifecycle state ("active",
// "drained"), whether the router currently considers it down, and — for
// reachable nodes — the node's own HealthReply.
type NodeHealth struct {
	Node   int          `json:"node"`
	URL    string       `json:"url"`
	State  string       `json:"state,omitempty"`
	Down   bool         `json:"down"`
	Detail *HealthReply `json:"detail,omitempty"`
}

// HealthReply is the one typed /v1/health payload for every deployment
// shape. A single node answers status, per-shard load, the key registry
// totals and durability state. A cluster router answers the same type
// with the totals summed across nodes, Nodes carrying each member's
// reply, NodesDown counting unreachable members, and Shards empty (the
// per-shard view lives inside each node's Detail). Status is "ok",
// "shedding" when any shard's open book exceeds its bound, or
// "degraded" when a cluster member is down.
type HealthReply struct {
	Status      string        `json:"status"`
	NodeID      string        `json:"node_id,omitempty"`
	MaxOpenBook int           `json:"max_open_book,omitempty"`
	Shards      []ShardHealth `json:"shards,omitempty"`

	RequestsTotal int64 `json:"requests_total"`
	ShedTotal     int64 `json:"shed_total"`
	ReplayedTotal int64 `json:"replayed_total"`

	// Durability state (internal/wal). With the WAL disabled,
	// wal_enabled is false and last_fsync_ok is vacuously true, so a
	// probe alerting on last_fsync_ok == false works on any deployment.
	WALEnabled         bool  `json:"wal_enabled"`
	ReplayedOps        int64 `json:"replayed_ops"`
	SnapshotAgePeriods int64 `json:"snapshot_age_periods"`
	LastFsyncOK        bool  `json:"last_fsync_ok"`

	// Multi-tenant state (tenant.go; empty on legacy single-tenant
	// servers, keeping their replies byte-identical). ConfigEpoch is the
	// installed tenant-config epoch; Tenants carries one section per
	// registered tenant, sorted by id. A cluster router merges the
	// sections by tenant id and reports the highest member epoch.
	ConfigEpoch uint64         `json:"config_epoch,omitempty"`
	Tenants     []TenantHealth `json:"tenants,omitempty"`

	// Cluster shape (merged replies only; empty on a single node).
	NodesDown int          `json:"nodes_down,omitempty"`
	Nodes     []NodeHealth `json:"nodes,omitempty"`
}

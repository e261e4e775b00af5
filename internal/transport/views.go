package transport

import (
	"net/http"
	"sort"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// ledgerReq is the decoded GET /v1/ledger query. Without a tenant
// parameter the reply is the aggregate ledger, bytes unchanged from the
// pre-tenant protocol; ?tenant=<id> narrows it to one tenant's view
// (the empty id names the legacy tenant's slice).
type ledgerReq struct {
	tenant   string
	byTenant bool
}

func (s *ShardedServer) decodeLedger(_ http.ResponseWriter, r *http.Request) (ledgerReq, []byte, bool) {
	var q ledgerReq
	if vs, ok := r.URL.Query()["tenant"]; ok && len(vs) > 0 {
		q = ledgerReq{tenant: vs[0], byTenant: true}
	}
	return q, nil, true
}

func (s *ShardedServer) execLedger(q ledgerReq) (auction.Ledger, *httpError) {
	view := (*auction.Exchange).Ledger
	if q.byTenant {
		if q.tenant != tenant.Legacy {
			if _, ok := s.tenants.Load().ConfigOf(q.tenant); !ok {
				return auction.Ledger{}, errf(http.StatusNotFound, "unknown tenant %q", q.tenant)
			}
		}
		// The legacy tenant ("") is the aggregate minus every named
		// tenant — the views always partition the total exactly.
		view = func(ex *auction.Exchange) auction.Ledger { return ex.LedgerOf(q.tenant) }
	}
	var total auction.Ledger
	// One shard at a time: the merged view never holds more than one
	// lock, so a ledger scrape cannot stall the fleet.
	for _, sh := range s.shards {
		sh.mu.Lock()
		l := view(sh.srv.Exchange())
		sh.mu.Unlock()
		total.Add(l)
	}
	return total, nil
}

// StatsReply is the merged monitoring view: summed rounds, a
// rounds-weighted mean of per-shard forecast-error quantiles, and the
// raw per-shard snapshots. Field names align with adserver.OpsStats so
// single-shard clients decoding into that type keep working.
type StatsReply struct {
	Shards         int                 `json:"shards"`
	Rounds         int64               `json:"rounds"`
	ForecastErrP50 float64             `json:"forecast_err_p50"`
	ForecastErrP95 float64             `json:"forecast_err_p95"`
	PerShard       []adserver.OpsStats `json:"per_shard,omitempty"`
}

// MergeStats is the one /v1/stats merge: shard snapshots into a node's
// reply (execStats) and node replies into the router's. Shards and
// rounds sum, PerShard concatenates in part order, and each quantile is
// the rounds-weighted mean Σ rᵢ·pᵢ / Σ rᵢ over the parts (zero without
// rounds). It takes the whole slice because a weighted mean cannot be
// folded pairwise without changing its floats.
func MergeStats(parts []StatsReply) StatsReply {
	var out StatsReply
	for _, p := range parts {
		out.Shards += p.Shards
		out.Rounds += p.Rounds
		out.ForecastErrP50 += float64(p.Rounds) * p.ForecastErrP50
		out.ForecastErrP95 += float64(p.Rounds) * p.ForecastErrP95
		out.PerShard = append(out.PerShard, p.PerShard...)
	}
	if out.Rounds > 0 {
		out.ForecastErrP50 /= float64(out.Rounds)
		out.ForecastErrP95 /= float64(out.Rounds)
	}
	return out
}

// execHealth reports per-shard load so operators (and tests) can see
// degradation coming: the open impression book, staged-bundle backlog,
// dedup-window size, whether the shard is currently shedding, and the
// registry's key totals.
func (s *ShardedServer) execHealth(struct{}) (HealthReply, *httpError) {
	reply := HealthReply{
		Status:        "ok",
		NodeID:        s.nodeID,
		MaxOpenBook:   s.MaxOpenBook,
		RequestsTotal: s.reg.CounterTotal(obs.MetricHTTPRequests),
		ReplayedTotal: s.reg.CounterTotal(obs.MetricHTTPReplays),
		LastFsyncOK:   true,
	}
	if s.wlog != nil {
		st := s.wlog.Stats()
		reply.WALEnabled = true
		reply.ReplayedOps = st.Replayed
		reply.SnapshotAgePeriods = s.periodEndRounds.Load() - s.lastSnapRound.Load()
		reply.LastFsyncOK = st.LastFsyncOK
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		open := sh.srv.OpenBook()
		shedding := s.shedding(sh)
		staged := sh.stagedAdsLocked()
		dedupKeys := len(sh.dedup.entries)
		sh.mu.Unlock()
		if shedding {
			reply.Status = "shedding"
		}
		reply.ShedTotal += sh.shed.Value()
		reply.Shards = append(reply.Shards, ShardHealth{
			Shard:     i,
			OpenBook:  open,
			StagedAds: staged,
			DedupKeys: dedupKeys,
			Shedding:  shedding,
			Requests:  sh.requests.Value(),
		})
	}
	if reg := s.tenants.Load(); reg != nil {
		reply.ConfigEpoch = reg.Epoch()
		reply.Tenants = s.tenantHealth(reg)
	}
	return reply, nil
}

func (s *ShardedServer) execStats(struct{}) (StatsReply, *httpError) {
	// Ops metrics are lock-isolated inside each adserver.Server, so this
	// takes no shard locks at all: stats scrapes never contend with the
	// serving path.
	parts := make([]StatsReply, len(s.shards))
	for i, sh := range s.shards {
		st := sh.srv.Ops()
		parts[i] = StatsReply{Shards: 1, Rounds: st.Rounds, ForecastErrP50: st.ForecastErrP50,
			ForecastErrP95: st.ForecastErrP95, PerShard: []adserver.OpsStats{st}}
	}
	return MergeStats(parts), nil
}

// MergeHealth is the router's /v1/health merge: the members' replies,
// as probed and in member order, into the HealthReply a single node
// answers. Status is "degraded" when any member is down, else the last
// reachable member's non-"ok" status.
func MergeHealth(nodes []NodeHealth) HealthReply {
	reply := HealthReply{Status: "ok", WALEnabled: false, LastFsyncOK: true, Nodes: nodes}
	tenants := make(map[string]*TenantHealth)
	var tenantOrder []string
	for _, nh := range nodes {
		if nh.Down {
			reply.NodesDown++
			reply.Status = "degraded"
			continue
		}
		if d := nh.Detail; d != nil {
			reply.RequestsTotal += d.RequestsTotal
			reply.ShedTotal += d.ShedTotal
			reply.ReplayedTotal += d.ReplayedTotal
			reply.ReplayedOps += d.ReplayedOps
			reply.WALEnabled = reply.WALEnabled || d.WALEnabled
			reply.LastFsyncOK = reply.LastFsyncOK && d.LastFsyncOK
			reply.SnapshotAgePeriods = max(reply.SnapshotAgePeriods, d.SnapshotAgePeriods)
			// Tenant sections merge by id: counters and ledgers sum
			// across members, the config fields (bounds, rates) are
			// identical cluster-wide so the first reachable member's
			// values stand. The merged epoch is the highest installed
			// one — during a rolling config push it names the config
			// at least one member is already serving.
			reply.ConfigEpoch = max(reply.ConfigEpoch, d.ConfigEpoch)
			for _, th := range d.Tenants {
				m, ok := tenants[th.Tenant]
				if !ok {
					cp := th
					tenants[th.Tenant] = &cp
					tenantOrder = append(tenantOrder, th.Tenant)
					continue
				}
				m.Add(th)
			}
		}
	}
	sort.Strings(tenantOrder)
	for _, id := range tenantOrder {
		reply.Tenants = append(reply.Tenants, *tenants[id])
	}
	if reply.Status == "ok" {
		for _, nh := range nodes {
			if nh.Detail != nil && nh.Detail.Status != "ok" {
				reply.Status = nh.Detail.Status
			}
		}
	}
	return reply
}

package transport

import (
	"net/http"

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
	if q.byTenant {
		if q.tenant != tenant.Legacy {
			if _, ok := s.tenants.Load().ConfigOf(q.tenant); !ok {
				return auction.Ledger{}, errf(http.StatusNotFound, "unknown tenant %q", q.tenant)
			}
		}
		return s.ledgerOf(q.tenant), nil
	}
	var total auction.Ledger
	// One shard at a time: the merged view never holds more than one
	// lock, so a ledger scrape cannot stall the fleet.
	for _, sh := range s.shards {
		sh.mu.Lock()
		l := sh.srv.Exchange().Ledger()
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
		sh.mu.Unlock()
		staged := 0
		sh.stagedMu.Lock()
		for _, ads := range sh.staged {
			staged += len(ads)
		}
		sh.stagedMu.Unlock()
		if shedding {
			reply.Status = "shedding"
		}
		reply.ShedTotal += sh.shed.Value()
		reply.Shards = append(reply.Shards, ShardHealth{
			Shard:     i,
			OpenBook:  open,
			StagedAds: staged,
			DedupKeys: sh.dedup.len(),
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
	reply := StatsReply{Shards: len(s.shards)}
	for _, sh := range s.shards {
		st := sh.srv.Ops()
		reply.PerShard = append(reply.PerShard, st)
		reply.Rounds += st.Rounds
		reply.ForecastErrP50 += float64(st.Rounds) * st.ForecastErrP50
		reply.ForecastErrP95 += float64(st.Rounds) * st.ForecastErrP95
	}
	if reply.Rounds > 0 {
		reply.ForecastErrP50 /= float64(reply.Rounds)
		reply.ForecastErrP95 /= float64(reply.Rounds)
	}
	return reply, nil
}

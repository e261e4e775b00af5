package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simclock"
)

func init() {
	register("x10", "observability: per-endpoint latency quantiles under chaos, 1 vs 4 shards", runX10)
}

// runX10 turns the runtime metrics layer (internal/obs) on the serving
// path itself: the chaos replay from X9 runs at 1 and 4 shards, and the
// per-endpoint latency histograms the HTTP middleware records — the
// same series GET /v1/metrics exposes — are read back for p50/p95/p99.
// The point is twofold: the observability layer is exercised end-to-end
// under fault injection (every quantile below came out of the
// log-bucketed histograms, not a test fixture), and the table shows
// where serving time goes as the shard count changes — period
// fan-out/fan-in rounds versus the per-shard client path.
func runX10(s Scale) (*metrics.Table, error) {
	cfg := sim.DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg = s.traceConfig()
	cfg.WarmupDays = s.WarmupDays
	cfg.Seed = s.Seed
	// Same bench-scale pinning as X9 so rows are comparable.
	cfg.Core.NoRescue = true
	cfg.Demand.TargetedFrac = 0
	cfg.Demand.BudgetImpressions = 1_000_000_000
	cfg.TraceCfg.Users = min(cfg.TraceCfg.Users, 80)

	plan := func() *faults.Plan {
		return &faults.Plan{
			Seed: s.Seed,
			Default: faults.Rule{
				Drop: 0.05, ServerErr: 0.05, Delay: 0.03, Reset: 0.02, Truncate: 0.02,
				MaxFaults: 2,
			},
			Partitions: []faults.Partition{{
				Shard: 0,
				From:  simclock.Time(s.WarmupDays)*simclock.Day + 10*simclock.Hour,
				To:    simclock.Time(s.WarmupDays)*simclock.Day + 14*simclock.Hour,
			}},
		}
	}

	t := metrics.NewTable(
		"X10: per-endpoint serving latency under chaos (from /v1/metrics histograms)",
		"shards", "endpoint", "requests", "p50 us", "p95 us", "p99 us")
	for _, shards := range []int{1, 4} {
		res, err := sim.RunTransportStream(cfg, sim.TransportOpts{Shards: shards, Plan: plan()})
		if err != nil {
			return nil, err
		}
		if res.Obs == nil {
			return nil, fmt.Errorf("x10: transport run returned no server registry")
		}
		type line struct {
			endpoint string
			h        *obs.Histogram
		}
		var lines []line
		res.Obs.EachHistogram(func(h *obs.Histogram) {
			if h.Name() != obs.MetricHTTPLatencyNS || h.Count() == 0 {
				return
			}
			lines = append(lines, line{endpoint: h.Label("endpoint"), h: h})
		})
		sort.Slice(lines, func(i, j int) bool { return lines[i].endpoint < lines[j].endpoint })
		for _, l := range lines {
			t.AddRow(shards, l.endpoint, l.h.Count(),
				fmt.Sprintf("%.0f", l.h.Quantile(0.50)/1e3),
				fmt.Sprintf("%.0f", l.h.Quantile(0.95)/1e3),
				fmt.Sprintf("%.0f", l.h.Quantile(0.99)/1e3))
		}
		if cr := res.ClientObs; cr != nil {
			hits := cr.CounterValue("client_cache_hits_total")
			misses := cr.CounterValue("client_cache_misses_total")
			t.AddNote("shards=%d client side: %d attempts, %d retries, cache hit ratio %.2f, shed %d, replays %d",
				shards,
				cr.CounterValue("client_attempts_total"),
				cr.CounterValue("client_retries_total"),
				ratio(hits, hits+misses),
				cr.CounterValue("client_shed_total"),
				res.Obs.CounterTotal(obs.MetricHTTPReplays))
		}
	}
	t.AddNote("latency is wall-clock serving time per request measured by the HTTP middleware; quantiles are read from the same log-bucketed histograms GET /v1/metrics exposes (<= 25%% bucket error)")
	t.AddNote("chaos plan as in X9: 5%% drop, 5%% 5xx, 3%% lost replies, 2%% resets, 2%% truncations, shard-0 partition 10:00-14:00 on day %d", s.WarmupDays)
	return t, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

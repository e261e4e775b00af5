package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simclock"
)

func init() {
	register("x9", "robustness cost: fault-free vs chaos HTTP replay (retry energy, degradation)", runX9)
}

// runX9 prices robustness in the paper's headline currency: the same
// trace is replayed through the HTTP serving path fault-free and under
// a seeded chaos plan (drops, 5xx, lost replies, a timed shard
// partition), and the delta in joules — every retry is charged tail
// energy through the radio model — is the energy cost of surviving the
// network the paper assumes. The ledger columns double as a live check
// that resilience never costs correctness: billed + violations == sold
// in every row.
func runX9(s Scale) (*metrics.Table, error) {
	cfg := sim.DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg = s.traceConfig()
	cfg.WarmupDays = s.WarmupDays
	cfg.Seed = s.Seed
	// The shard-count-invariance contract (see sim.RunTransportStream) keeps
	// rows comparable across shard counts; cap the fleet so the full
	// HTTP replay stays a bench-scale experiment.
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

	type row struct {
		name   string
		shards int
		chaos  bool
	}
	rows := []row{
		{"fault-free", 1, false},
		{"chaos", 1, true},
		{"chaos", 4, true},
	}
	t := metrics.NewTable(
		"X9: robustness cost under chaos (HTTP replay, seeded fault plan)",
		"run", "shards", "sold", "billed", "violations", "retries", "degraded", "deferred",
		"retry J", "retry mJ/user/day")
	var base *sim.Result
	for _, r := range rows {
		o := sim.TransportOpts{Shards: r.shards}
		if r.chaos {
			o.Plan = plan()
		}
		res, err := sim.RunTransportStream(cfg, o)
		if err != nil {
			return nil, err
		}
		if res.Ledger.Billed+res.Ledger.Violations != res.Ledger.Sold {
			return nil, fmt.Errorf("x9: conservation broken in %s/%d: %+v", r.name, r.shards, res.Ledger)
		}
		if base == nil {
			base = res
		}
		perUserDay := 0.0
		if res.Users > 0 && res.Days > 0 {
			perUserDay = res.RetryEnergyJ / float64(res.Users) / float64(res.Days) * 1000
		}
		t.AddRow(r.name, r.shards, res.Ledger.Sold, res.Ledger.Billed, res.Ledger.Violations,
			res.Net.Retries, res.Net.DegradedSlots, res.Net.DeferredReports,
			fmt.Sprintf("%.1f", res.RetryEnergyJ),
			fmt.Sprintf("%.2f", perUserDay))
	}
	t.AddNote("retry J is the radio-model energy charged to transport:retry alone; the fault-free row is always 0, so the chaos rows ARE the robustness premium")
	t.AddNote("plan: 5%% drop, 5%% 5xx, 3%% lost replies, 2%% resets, 2%% truncations, shard-0 partition 10:00-14:00 on day %d", s.WarmupDays)
	return t, nil
}

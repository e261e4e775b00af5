package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func init() {
	register("f5", "SLA violation rate vs replication factor k", runF5)
	register("f6", "revenue loss vs cancellation sync delay and k", runF6)
	register("f7", "HEADLINE: ad energy savings vs prefetch period, all modes", runF7)
	register("f8", "energy / SLA / revenue tradeoff across operating points", runF8)
	register("f9", "deadline sensitivity: SLA and revenue vs display deadline", runF9)
}

// simConfig builds the standard simulation config for a scale and mode.
func simConfig(s Scale, mode core.Mode) sim.Config {
	cfg := sim.DefaultConfig(mode)
	cfg.TraceCfg = s.traceConfig()
	cfg.WarmupDays = s.WarmupDays
	cfg.Seed = s.Seed
	return cfg
}

// sharedPopulation generates the scale's population once so a sweep's
// runs can share it (simulation runs never mutate the trace) and execute
// in parallel.
func sharedPopulation(s Scale) (*trace.Population, error) {
	return trace.Generate(s.traceConfig())
}

func runF5(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"F5: SLA violation rate vs replication factor (predictive, 4h period)",
		"k", "mean k", "SLA violations", "revenue loss", "hit rate", "ad J/user/day")
	type variant struct {
		label string
		fixed int
	}
	variants := []variant{{"adaptive", 0}, {"1", 1}, {"2", 2}, {"3", 3}, {"4", 4}, {"6", 6}}
	pop, err := sharedPopulation(s)
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, 0, len(variants))
	for _, v := range variants {
		cfg := simConfig(s, core.ModePredictive)
		cfg.Population = pop
		if v.fixed > 0 {
			cfg.Core.Server.Overbook.FixedReplicas = v.fixed
			cfg.Core.Server.Overbook.MaxReplicas = v.fixed
		}
		// Disable the rescue path so the figure isolates what replication
		// alone buys (the deployed system layers rescue on top).
		cfg.Core.Server.TopUpCap = 0
		cfg.Core.NoRescue = true
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.AddRow(variants[i].label, fmt.Sprintf("%.2f", r.MeanReplication()),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.ViolationRate()),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.RevenueLossFrac()),
			fmt.Sprintf("%.0f%%", 100*r.Counters.HitRate()),
			r.AdEnergyPerUserDay())
	}
	t.AddNote("rescue/top-up disabled to isolate replication; the full system adds both")
	return t, nil
}

func runF6(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"F6: revenue loss vs cancellation sync delay (predictive, 4h period)",
		"sync delay", "free shows", "revenue loss", "SLA violations", "billed USD")
	delays := []time.Duration{15 * time.Second, time.Minute, 10 * time.Minute, time.Hour, 4 * time.Hour}
	pop, err := sharedPopulation(s)
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, 0, len(delays))
	for _, d := range delays {
		cfg := simConfig(s, core.ModePredictive)
		cfg.Population = pop
		cfg.Core.Server.SyncDelay = d
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.AddRow(delays[i].String(), r.Ledger.FreeShows,
			fmt.Sprintf("%.2f%%", 100*r.Ledger.RevenueLossFrac()),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.ViolationRate()),
			r.Ledger.BilledUSD)
	}
	t.AddNote("replicas racing before the claim propagates are shown free (revenue loss)")
	return t, nil
}

func runF7(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"F7: ad energy overhead vs prefetch period (headline: >50% saving, negligible SLA/revenue loss)",
		"period", "mode", "ad J/user/day", "saving", "hit rate", "SLA viol", "rev loss")
	modes := []core.Mode{core.ModeOnDemand, core.ModeNaiveBulk, core.ModePredictive, core.ModeOracle}
	periods := []time.Duration{time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour}
	pop, err := sharedPopulation(s)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, period := range periods {
		for _, m := range modes {
			cfg := simConfig(s, m)
			cfg.Population = pop
			cfg.Core.Server.Period = period
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := sim.RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, period := range periods {
		var base float64
		for _, m := range modes {
			r := results[i]
			i++
			if m == core.ModeOnDemand {
				base = r.AdEnergyPerUserDay()
			}
			t.AddRow(period.String(), m.String(), r.AdEnergyPerUserDay(),
				fmt.Sprintf("%.1f%%", metrics.PercentChange(base, r.AdEnergyPerUserDay())),
				fmt.Sprintf("%.0f%%", 100*r.Counters.HitRate()),
				fmt.Sprintf("%.2f%%", 100*r.Ledger.ViolationRate()),
				fmt.Sprintf("%.2f%%", 100*r.Ledger.RevenueLossFrac()))
		}
	}
	t.AddNote("saving is relative to the on-demand row of the same period")
	return t, nil
}

func runF8(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"F8: operating-point tradeoffs (predictive, 4h period)",
		"variant", "ad J/user/day", "saving", "SLA viol", "rev loss", "hit rate")
	pop, err := sharedPopulation(s)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label  string
		mutate func(*sim.Config)
	}
	variants := []variant{
		{"default (p90, eps .05)", func(*sim.Config) {}},
		{"median forecast (p50)", func(c *sim.Config) { c.Core.Percentile = 0.5 }},
		{"p99 forecast", func(c *sim.Config) { c.Core.Percentile = 0.99 }},
		{"aggressive admission (eps .35)", func(c *sim.Config) { c.Core.Server.Overbook.AdmissionEpsilon = 0.35 }},
		{"piggyback delivery", func(c *sim.Config) { c.Core.Delivery = core.DeliverPiggyback }},
		{"no rescue path", func(c *sim.Config) { c.Core.NoRescue = true; c.Core.Server.TopUpCap = 0 }},
		{"no top-up", func(c *sim.Config) { c.Core.Server.TopUpCap = 0 }},
		{"report-at-display client", func(c *sim.Config) { c.ReportBytes = 256 }},
		{"adaptive percentile", func(c *sim.Config) { c.Core.AdaptivePercentile = true }},
	}
	baseCfg := simConfig(s, core.ModeOnDemand)
	baseCfg.Population = pop
	cfgs := []sim.Config{baseCfg}
	for _, v := range variants {
		cfg := simConfig(s, core.ModePredictive)
		cfg.Population = pop
		v.mutate(&cfg)
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	baseJ := results[0].AdEnergyPerUserDay()
	for i, v := range variants {
		r := results[i+1]
		t.AddRow(v.label, r.AdEnergyPerUserDay(),
			fmt.Sprintf("%.1f%%", metrics.PercentChange(baseJ, r.AdEnergyPerUserDay())),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.ViolationRate()),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.RevenueLossFrac()),
			fmt.Sprintf("%.0f%%", 100*r.Counters.HitRate()))
	}
	t.AddNote("on-demand baseline: %.1f J/user/day", baseJ)
	return t, nil
}

func runF9(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"F9: deadline sensitivity (predictive, 4h period)",
		"deadline", "SLA viol", "rev loss", "hit rate", "ad J/user/day")
	factors := []float64{0.25, 0.5, 1.0, 1.5, 2.0, 3.0}
	pop, err := sharedPopulation(s)
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, 0, len(factors))
	for _, f := range factors {
		cfg := simConfig(s, core.ModePredictive)
		cfg.Population = pop
		cfg.Core.Server.DeadlineFactor = f
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunParallel(cfgs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.AddRow(fmt.Sprintf("%.2fx period", factors[i]),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.ViolationRate()),
			fmt.Sprintf("%.2f%%", 100*r.Ledger.RevenueLossFrac()),
			fmt.Sprintf("%.0f%%", 100*r.Counters.HitRate()),
			r.AdEnergyPerUserDay())
	}
	t.AddNote("tighter deadlines violate more; the system operates at 1.5x the period")
	return t, nil
}

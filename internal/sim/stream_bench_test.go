package sim

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkStreamingReplay measures the event-driven scheduler
// end-to-end: a full streaming replay — lazy trace derivation, wake
// heaps, real HTTP through the sharded server on the batched wire —
// at a population small enough to iterate. ns/op is the wall time of
// one whole replay; events/s counts the scheduler's throughput
// (device wake-ups plus HTTP ops) in wall time.
//
// Run: make bench
func BenchmarkStreamingReplay(b *testing.B) {
	cfg := DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg.Users = 200
	cfg.TraceCfg.Days = 2
	cfg.TraceCfg.SessionsPerDayMedian = 8
	cfg.WarmupDays = 1
	cfg.Core.NoRescue = true
	cfg.Demand.TargetedFrac = 0
	cfg.Demand.BudgetImpressions = 1_000_000_000
	o := TransportOpts{Shards: 2, Workers: 4, Batched: true, Lean: true}

	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := RunTransportStream(cfg, o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.StreamPeriods {
			events += p.Ops + p.Wakeups
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

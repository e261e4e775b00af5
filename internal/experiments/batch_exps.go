package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func init() {
	register("x11", "batched wire protocol: round trips and equivalence vs sequential transport", runX11)
}

// runX11 prices the batched wire protocol: the same trace is replayed
// through the HTTP serving path with the one-request-per-op transport
// and with the coalescing /v1/batch transport, at 1, 2 and 4 shards.
// The attempts column is the fleet's HTTP round-trip count — the radio
// currency the paper's prefetching argument spends — and the ledger
// columns double as a live equivalence check: the batched rows must
// reproduce the sequential ledger exactly, or the protocol changed
// outcomes instead of just wire economics.
func runX11(s Scale) (*metrics.Table, error) {
	cfg := sim.DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg = s.traceConfig()
	cfg.WarmupDays = s.WarmupDays
	cfg.Seed = s.Seed
	// Same contract as X9: order-free per-impression outcomes keep rows
	// comparable across shard counts and wire modes.
	cfg.Core.NoRescue = true
	cfg.Demand.TargetedFrac = 0
	cfg.Demand.BudgetImpressions = 1_000_000_000
	cfg.TraceCfg.Users = min(cfg.TraceCfg.Users, 80)

	t := metrics.NewTable(
		"X11: batched vs sequential wire protocol (HTTP replay)",
		"wire", "shards", "sold", "billed", "violations", "attempts", "saved RTs", "attempts ratio")
	for _, shards := range []int{1, 2, 4} {
		seq, err := sim.RunTransportStream(cfg, sim.TransportOpts{Shards: shards})
		if err != nil {
			return nil, err
		}
		bat, err := sim.RunTransportStream(cfg, sim.TransportOpts{Shards: shards, Batched: true})
		if err != nil {
			return nil, err
		}
		if sim.LedgerJSON(bat.Ledger) != sim.LedgerJSON(seq.Ledger) {
			return nil, fmt.Errorf("x11: wire modes disagree at %d shards:\n sequential %s\n batched    %s",
				shards, sim.LedgerJSON(seq.Ledger), sim.LedgerJSON(bat.Ledger))
		}
		if bat.Counters != seq.Counters {
			return nil, fmt.Errorf("x11: client counters disagree at %d shards: %+v vs %+v",
				shards, seq.Counters, bat.Counters)
		}
		saved := bat.Obs.CounterTotal("batch_round_trips_saved_total")
		ratio := float64(seq.Net.Attempts) / float64(bat.Net.Attempts)
		t.AddRow("sequential", shards, seq.Ledger.Sold, seq.Ledger.Billed, seq.Ledger.Violations,
			seq.Net.Attempts, int64(0), "1.00")
		t.AddRow("batched", shards, bat.Ledger.Sold, bat.Ledger.Billed, bat.Ledger.Violations,
			bat.Net.Attempts, saved, fmt.Sprintf("%.2f", ratio))
	}
	t.AddNote("every batched row reproduced its sequential ledger byte-for-byte (checked, not assumed)")
	t.AddNote("saved RTs is the server-side batch_round_trips_saved_total counter: sub-ops carried minus envelopes received")
	return t, nil
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/auction"
	"repro/internal/metrics"
	"repro/internal/overbook"
	"repro/internal/simclock"
)

func init() {
	register("t2", "exchange and planner throughput (server-side scalability)", runT2)
}

// runT2 measures the server-side hot paths with wall-clock timing:
// second-price auctions per second and replica-planning operations per
// second, across inventory batch sizes. It demonstrates that a single
// exchange instance covers the paper's population comfortably.
func runT2(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"T2: server-side throughput",
		"batch", "auctions/s", "plans/s")
	rng := simclock.NewRand(s.Seed)
	for _, batch := range []int{1000, 5000, 20000} {
		// Auction throughput: one deep exchange, sell `batch` slots.
		demand := auction.DefaultDemand()
		demand.BudgetImpressions = int64(batch) * 10
		ex, err := auction.NewExchange(demand.NodeCampaigns(rng, nil, 1), 0.0001)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sold := ex.SellSlots(0, batch, nil, time.Hour)
		auctionRate := float64(len(sold)) / time.Since(start).Seconds()
		if len(sold) == 0 {
			return nil, fmt.Errorf("experiments: t2 sold nothing at batch %d", batch)
		}

		// Planner throughput: assign the batch across a client pool.
		cands := make([]*overbook.Candidate, 500)
		r := rng.Stream("cands")
		for i := range cands {
			cands[i] = &overbook.Candidate{
				Client:         i,
				PredictedSlots: 5 + 10*r.Float64(),
				ExpectedSlots:  4 + 8*r.Float64(),
				NoShowProb:     0.05 + 0.4*r.Float64(),
			}
		}
		cfg := overbook.DefaultConfig()
		cfg.CacheCap = 1 << 20 // throughput test: no capacity cliff
		planner, err := overbook.NewPlanner(cfg, cands)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		planner.Plan(batch)
		planRate := float64(batch) / time.Since(start).Seconds()

		t.AddRow(batch,
			fmt.Sprintf("%.3g", auctionRate),
			fmt.Sprintf("%.3g", planRate))
	}
	t.AddNote("single-threaded, in-process; 500-client candidate pool for planning")
	return t, nil
}

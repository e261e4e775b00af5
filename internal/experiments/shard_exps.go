package experiments

import (
	"fmt"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
)

func init() {
	register("x8", "horizontal scaling: period-round latency vs ad-server shards", runX8)
}

// runX8 measures the shard-scaling story: wall-clock time of one full
// prefetch round (forecast + admission + auctions + replica planning)
// across shard counts, plus the pooling loss small shards pay (per-shard
// admission quantiles are more conservative than one big pool's). With
// the lazy-heap planner a single shard already clears the paper's full
// population in well under a second, so the experiment runs at 60k
// clients — a fleet ~35x the paper's — to expose the scaling curve.
func runX8(s Scale) (*metrics.Table, error) {
	const clients = 60000
	rng := simclock.NewRand(s.Seed).Stream("x8")

	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	// Heterogeneous clients, fixed across shard counts.
	type clientStats struct{ slots, mean, noShow float64 }
	perClient := make([]clientStats, clients)
	for i := range perClient {
		r := rng.StreamN("client", i)
		mean := 1 + 9*r.Float64()
		perClient[i] = clientStats{slots: mean * 1.4, mean: mean, noShow: 0.05 + 0.3*r.Float64()}
	}

	t := metrics.NewTable(
		"X8: one prefetch round vs shard count (60k clients)",
		"shards", "total CPU", "slowest shard", "projected speedup", "sold", "pooling loss")
	var baseSold int
	for _, n := range []int{1, 2, 4, 8} {
		cfg := adserver.DefaultConfig()
		cfg.Period = 4 * time.Hour
		pool, err := shard.New(n, cfg, ids, func(int) (*auction.Exchange, error) {
			d := auction.DefaultDemand()
			d.BudgetImpressions = 10_000_000
			return auction.NewExchange(d.NodeCampaigns(rng, nil, n), 0.0001)
		}, func(id int) predict.Predictor {
			c := perClient[id]
			return staticPredictor{predict.Estimate{Slots: c.slots, Mean: c.mean, NoShowProb: c.noShow}}
		}, nil)
		if err != nil {
			return nil, err
		}
		// Run each shard's round serially and time it individually:
		// shards share nothing, so on an n-core deployment the round
		// latency is the slowest shard. (This harness may have a single
		// core, where wall-clock of the concurrent round would equal the
		// total regardless of sharding.)
		var total, slowest time.Duration
		stats := adserver.PeriodStats{}
		for i := 0; i < pool.Shards(); i++ {
			start := time.Now()
			_, st := pool.Shard(i).StartPeriod(0, predict.Period{})
			d := time.Since(start)
			total += d
			if d > slowest {
				slowest = d
			}
			stats.Add(st)
		}
		pool.EndPeriod(simclock.Time(cfg.Period)*2, predict.Period{})
		if n == 1 {
			baseSold = stats.Sold
		}
		t.AddRow(n, total.Round(time.Millisecond).String(),
			slowest.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", float64(total)/float64(slowest)),
			stats.Sold,
			fmt.Sprintf("%.1f%%", metrics.PercentChange(float64(baseSold), float64(stats.Sold))))
	}
	t.AddNote("shards share nothing: on an n-core deployment round latency is the slowest shard; pooling loss = inventory given up to per-shard admission quantiles")
	return t, nil
}

// staticPredictor returns a fixed estimate (x8 isolates server-side
// costs from prediction).
type staticPredictor struct{ est predict.Estimate }

func (s staticPredictor) Name() string                            { return "static" }
func (s staticPredictor) Predict(predict.Period) predict.Estimate { return s.est }
func (s staticPredictor) Observe(predict.Period, int)             {}

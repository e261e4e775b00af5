package adserver

import (
	"runtime"
	"testing"

	"repro/internal/predict"
	"repro/internal/simclock"
)

// startPeriodAllocs returns what one predictive StartPeriod allocates
// over n clients, in the steady state (three rounds in), with every
// client's percentile histogram trained on the same week of history.
func startPeriodAllocs(t *testing.T, n int) (allocs uint64, sold int) {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	s, err := New(DefaultConfig(), deepDemand(t), ids, func(id int) predict.Predictor {
		ph := predict.NewPercentileHistogram(0.9)
		for day := 0; day < 7; day++ {
			ph.Observe(predict.Period{OfDay: 0}, 2+(id+day)%5)
		}
		return ph
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for i := 0; i < 4; i++ {
		now := simclock.Time(i) * 4 * simclock.Hour
		p := predict.Period{Index: i}
		runtime.ReadMemStats(&before)
		_, stats := s.StartPeriod(now, p)
		runtime.ReadMemStats(&after)
		sold = stats.Sold
		s.EndPeriod(now+4*simclock.Hour, p)
	}
	return after.Mallocs - before.Mallocs, sold
}

// TestStartPeriodAllocationsDoNotScale pins the period start's heap
// work as per round, not per client: candidates, their distributions,
// the planner's holder lists and the bundles are each one slab. Ten
// times the clients (and ten times the sales) may only add the
// amortised growth of per-sale state — the id map, record chunks and
// holder slabs of 512, the exchange's books — which stays within
// startPeriodAllocSlack. Allocating per client, as a candidate, a
// shortfall closure and a bundle each, read 973 and 9 771 here.
func TestStartPeriodAllocationsDoNotScale(t *testing.T) {
	const startPeriodAllocSlack = 32
	small, soldSmall := startPeriodAllocs(t, 100)
	large, soldLarge := startPeriodAllocs(t, 1000)
	if soldLarge < 5*soldSmall {
		t.Fatalf("sold %d at 100 clients and %d at 1000: the sale should scale with the fleet", soldSmall, soldLarge)
	}
	if large > small+startPeriodAllocSlack {
		t.Errorf("StartPeriod allocates %d objects at 100 clients and %d at 1000, want within %d of each other",
			small, large, startPeriodAllocSlack)
	}
}

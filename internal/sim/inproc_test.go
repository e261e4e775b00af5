package sim

import (
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// newTestInproc assembles sim.Run's in-process system over n clients
// (ids 0..n-1, at their own positions) and an exchange deep enough that
// every sale clears.
func newTestInproc(t *testing.T, cfg core.Config, n int, oracle func(int) []int) (*inproc, *auction.Exchange) {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 1e9},
		{ID: 1, BidCPM: 1000, BudgetUSD: 1e9},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	s, err := newInproc(cfg, ex, ids, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, ex
}

// openAll opens a period with every client online and returns the
// scheduled downloads by client.
func openAll(s *inproc, now simclock.Time, p predict.Period) (map[int]int, adserver.PeriodStats) {
	got := map[int]int{}
	stats := s.open(now, p, func(int) bool { return false }, func(i, ads int) { got[i] = ads })
	return got, stats
}

// slotAt serves one slot, with no report lost, and fails the test on an
// error.
func slotAt(t *testing.T, s *inproc, now simclock.Time, i int) slotOutcome {
	t.Helper()
	out, err := s.slot(now, i, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// warm trains every client's predictor on slots per period, in the same
// period-of-day on each of days days (the percentile model conditions
// on period-of-day), and returns that period on the next day.
func warm(s *inproc, days, slots int) predict.Period {
	for d := 0; d < days; d++ {
		for i := range s.devs {
			for k := 0; k < slots; k++ {
				s.srv.ObserveSlot(i)
			}
		}
		s.srv.EndPeriod(simclock.Time(d)*simclock.Day+simclock.Hour, predict.Period{Index: d * 24})
	}
	return predict.Period{Index: days * 24}
}

func naiveInproc(t *testing.T, delivery core.Delivery) (*inproc, *auction.Exchange) {
	t.Helper()
	cfg := core.DefaultConfig(core.ModeNaiveBulk)
	cfg.NaiveK = 2
	cfg.Delivery = delivery
	return newTestInproc(t, cfg, 4, nil)
}

func TestOnDemandModeFlow(t *testing.T) {
	s, ex := newTestInproc(t, core.DefaultConfig(core.ModeOnDemand), 2, nil)
	got, stats := openAll(s, 0, predict.Period{})
	if len(got) != 0 || stats.Sold != 0 {
		t.Fatal("on-demand mode should not prefetch")
	}
	out, err := s.slot(simclock.At(time.Minute), 0, []trace.Category{trace.CatGame}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.hit || out.rescued || out.imp == 0 {
		t.Fatalf("outcome %+v", out)
	}
	if l := ex.Ledger(); l.Billed != 1 || l.Violations != 0 || l.FreeShows != 0 {
		t.Fatalf("ledger %+v", l)
	}
	if c := s.devs[0].Counters; c.OnDemandFetches != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestNaiveBulkScheduledDelivery(t *testing.T) {
	s, ex := naiveInproc(t, core.DeliverScheduled)
	got, stats := openAll(s, 0, predict.Period{})
	// 4 clients x K=2 predicted slots: admission = 8, one replica each.
	if stats.Sold != 8 || stats.Replicas != 8 {
		t.Fatalf("stats %+v", stats)
	}
	if len(got) != 4 {
		t.Fatalf("downloads %v", got)
	}
	for i, ads := range got {
		if ads != 2 || s.devs[i].Cache.Len() != 2 {
			t.Fatalf("uneven naive spread: downloads %v, client %d caches %d", got, i, s.devs[i].Cache.Len())
		}
	}
	// Slots are served from cache, displays billed.
	if out := slotAt(t, s, simclock.At(time.Minute), 0); !out.hit || out.piggyback != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if l := ex.Ledger(); l.Billed != 1 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestNaiveBulkPiggybackDelivery(t *testing.T) {
	s, _ := naiveInproc(t, core.DeliverPiggyback)
	if got, _ := openAll(s, 0, predict.Period{}); len(got) != 0 {
		t.Fatalf("piggyback should not download at period start: %v", got)
	}
	if out := slotAt(t, s, simclock.At(time.Minute), 1); out.piggyback != 2 || !out.hit {
		t.Fatalf("outcome %+v", out)
	}
	// Second slot: bundle already local.
	if out := slotAt(t, s, simclock.At(2*time.Minute), 1); out.piggyback != 0 || !out.hit {
		t.Fatalf("outcome %+v", out)
	}
	// Third slot: cache empty, fallback.
	if out := slotAt(t, s, simclock.At(3*time.Minute), 1); out.hit {
		t.Fatalf("outcome %+v", out)
	}
}

func TestEndPeriodSweepsUnshown(t *testing.T) {
	s, ex := naiveInproc(t, core.DeliverScheduled)
	_, stats := openAll(s, 0, predict.Period{})
	slotAt(t, s, simclock.At(time.Minute), 0) // show exactly one ad
	// Sweep well past the deadline (period x DeadlineFactor).
	if v := s.srv.EndPeriod(simclock.At(24*time.Hour), predict.Period{}); v != stats.Sold-1 {
		t.Fatalf("violations %d want %d", v, stats.Sold-1)
	}
	if l := ex.Ledger(); l.Billed != 1 || int(l.Violations) != stats.Sold-1 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestOfflineDropsScheduledBundle(t *testing.T) {
	s, _ := naiveInproc(t, core.DeliverScheduled)
	got := map[int]int{}
	// Client 0 is unreachable at the boundary.
	stats := s.open(0, predict.Period{}, func(i int) bool { return i == 0 }, func(i, ads int) { got[i] = ads })
	if stats.Sold == 0 {
		t.Fatal("nothing sold")
	}
	if _, ok := got[0]; ok {
		t.Fatal("scheduled download to an offline client")
	}
	// The offline client's bundle is dropped, not parked in Pending:
	// only piggyback delivery ever takes a pending bundle, so under
	// scheduled delivery it would wait there forever, one more bundle
	// per offline period.
	if n := len(s.devs[0].Pending); n != 0 {
		t.Fatalf("offline client's bundle parked in Pending (%d ads); nothing ever downloads it", n)
	}
	// Online clients got theirs immediately.
	if got[1] == 0 || s.devs[1].Cache.Len() == 0 {
		t.Fatal("online client not served")
	}
}

func TestReportLossDropsBilling(t *testing.T) {
	s, ex := naiveInproc(t, core.DeliverScheduled)
	openAll(s, 0, predict.Period{})
	out, err := s.slot(simclock.At(time.Minute), 0, nil, func() bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !out.hit {
		t.Fatalf("outcome %+v", out)
	}
	// Displayed but never reported: nothing billed.
	if l := ex.Ledger(); l.Billed != 0 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestPiggybackWithTopUpCharging(t *testing.T) {
	// Piggyback delivery + a rescue with top-up: every outcome field
	// that carries an energy charge must agree with the device.
	cfg := core.DefaultConfig(core.ModeNaiveBulk)
	cfg.NaiveK = 1
	cfg.Delivery = core.DeliverPiggyback
	cfg.Server.TopUpCap = 4
	s, _ := newTestInproc(t, cfg, 3, nil)
	openAll(s, 0, predict.Period{})
	if out := slotAt(t, s, simclock.At(time.Minute), 0); out.piggyback != 1 || !out.hit {
		t.Fatalf("first slot %+v", out)
	}
	// Cache now empty; the next slot misses and rescues one of the
	// other clients' still-open impressions.
	out := slotAt(t, s, simclock.At(2*time.Minute), 0)
	if out.hit || !out.rescued || out.imp == 0 {
		t.Fatalf("second slot %+v", out)
	}
	if out.topUps != s.devs[0].Cache.Len() {
		t.Fatalf("top-up accounting inconsistent: %+v cache=%d", out, s.devs[0].Cache.Len())
	}
}

func TestPredictiveEndToEndPeriod(t *testing.T) {
	cfg := core.DefaultConfig(core.ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.Overbook.CacheCap = 8
	s, _ := newTestInproc(t, cfg, 3, nil)
	p := warm(s, 5, 2)
	got, stats := openAll(s, 5*simclock.Day, p)
	if stats.Sold == 0 || stats.Placed == 0 || len(got) == 0 {
		t.Fatalf("predictive sold nothing: %+v downloads %v", stats, got)
	}
	// Replication: predictive mode with flaky clients replicates >= 1x.
	if stats.MeanK() < 1 {
		t.Fatalf("mean k %v", stats.MeanK())
	}
	// Serve a slot from cache on the first client with a bundle.
	first := len(s.devs)
	for i := range got {
		first = min(first, i)
	}
	if out := slotAt(t, s, 5*simclock.Day+simclock.Minute, first); !out.hit {
		t.Fatalf("client %d outcome %+v", first, out)
	}
}

func TestOracleModeNoViolationsWhenExact(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeOracle)
	cfg.Server.Period = time.Hour
	// Every client has exactly 2 slots in period 0.
	s, ex := newTestInproc(t, cfg, 3, func(int) []int { return []int{2, 2} })
	p := predict.PeriodOf(0, cfg.Server.Period)
	if _, stats := openAll(s, 0, p); stats.Sold != 6 {
		t.Fatalf("oracle should sell exactly 6, got %+v", stats)
	}
	// Fire exactly the predicted slots.
	for i := 0; i < 3; i++ {
		for k := 0; k < 2; k++ {
			if out := slotAt(t, s, simclock.Time(i*10+k+1)*simclock.Minute, i); !out.hit {
				t.Fatalf("oracle slot missed cache: client %d slot %d %+v", i, k, out)
			}
		}
	}
	if v := s.srv.EndPeriod(simclock.Time(time.Hour+time.Minute), p); v != 0 {
		t.Fatalf("oracle violations %d", v)
	}
	if l := ex.Ledger(); l.Billed != 6 || l.FreeShows != 0 || l.Violations != 0 {
		t.Fatalf("ledger %+v", l)
	}
}

// racingInproc builds two clients holding replicas of the same sold
// impressions (2x replication), trained on one slot per period; sync
// sets how fast claims propagate.
func racingInproc(t *testing.T, sync func(*adserver.Config)) (*inproc, *auction.Exchange, adserver.PeriodStats) {
	t.Helper()
	cfg := core.DefaultConfig(core.ModePredictive)
	cfg.Server.Period = time.Hour
	sync(&cfg.Server)
	cfg.Server.Overbook.FixedReplicas = 2
	cfg.Server.Overbook.AdmissionEpsilon = 0.45 // tiny population: keep admission > 0
	s, ex := newTestInproc(t, cfg, 2, nil)
	p := warm(s, 6, 1)
	_, stats := openAll(s, 6*simclock.Day, p)
	return s, ex, stats
}

func TestRevenueLossFromRacingReplicas(t *testing.T) {
	// Cancellations effectively never propagate, so both clients
	// display their replica of the same impression.
	s, ex, stats := racingInproc(t, func(c *adserver.Config) { c.SyncDelay = 24 * time.Hour })
	if stats.Replicas != 2*stats.Placed {
		t.Fatalf("stats %+v", stats)
	}
	o1 := slotAt(t, s, 6*simclock.Day+simclock.Minute, 0)
	o2 := slotAt(t, s, 6*simclock.Day+2*simclock.Minute, 1)
	if !o1.hit || !o2.hit {
		t.Fatalf("outcomes %+v %+v", o1, o2)
	}
	if o1.imp != o2.imp {
		t.Fatalf("expected the same impression to race, got %d and %d", o1.imp, o2.imp)
	}
	if l := ex.Ledger(); l.Billed != 1 || l.FreeShows != 1 || l.FreeUSD <= 0 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestCancellationPreventsRace(t *testing.T) {
	// Fast sync: the second client knows and skips to a fresh ad.
	s, ex, _ := racingInproc(t, func(c *adserver.Config) { c.ReportLatency, c.SyncDelay = 0, time.Second })
	o1 := slotAt(t, s, 6*simclock.Day+simclock.Minute, 0)
	o2 := slotAt(t, s, 6*simclock.Day+10*simclock.Minute, 1)
	if o1.hit && o2.hit && o1.imp == o2.imp {
		t.Fatal("cancellation did not prevent the race")
	}
	if ex.Ledger().FreeShows != 0 {
		t.Fatalf("ledger %+v", ex.Ledger())
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func deepExchange(t *testing.T) *auction.Exchange {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 1e9},
		{ID: 1, BidCPM: 1000, BudgetUSD: 1e9},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestModeStrings(t *testing.T) {
	if ModeOnDemand.String() != "on-demand" || ModeNaiveBulk.String() != "naive-bulk" ||
		ModePredictive.String() != "predictive" || ModeOracle.String() != "oracle" {
		t.Fatal("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode name wrong")
	}
	if DeliverScheduled.String() != "scheduled" || DeliverPiggyback.String() != "piggyback" {
		t.Fatal("delivery names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(ModePredictive).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(ModePredictive)
	bad.Percentile = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("bad percentile accepted")
	}
	bad = DefaultConfig(ModeNaiveBulk)
	bad.NaiveK = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad NaiveK accepted")
	}
	bad = DefaultConfig(ModeOnDemand)
	bad.CacheCap = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad CacheCap accepted")
	}
	bad = DefaultConfig(ModeOnDemand)
	bad.Server.Period = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad server config accepted")
	}
}

func TestNewOracleRequiresSeries(t *testing.T) {
	if _, err := New(DefaultConfig(ModeOracle), deepExchange(t), ids(2), nil, nil); err == nil {
		t.Fatal("oracle without series accepted")
	}
}

func TestOnDemandModeFlow(t *testing.T) {
	ex := deepExchange(t)
	sys, err := New(DefaultConfig(ModeOnDemand), ex, ids(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dl, stats := sys.StartPeriod(0, predict.Period{})
	if dl != nil || stats.Sold != 0 {
		t.Fatal("on-demand mode should not prefetch")
	}
	out, err := sys.HandleSlot(simclock.At(time.Minute), 0, []trace.Category{trace.CatGame})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fetched || out.CacheHit || out.Impression == 0 {
		t.Fatalf("outcome %+v", out)
	}
	l := ex.Ledger()
	if l.Billed != 1 || l.Violations != 0 || l.FreeShows != 0 {
		t.Fatalf("ledger %+v", l)
	}
	if sys.Counters().OnDemandFetches != 1 {
		t.Fatalf("counters %+v", sys.Counters())
	}
}

func TestHandleSlotUnknownClient(t *testing.T) {
	sys, err := New(DefaultConfig(ModeOnDemand), deepExchange(t), ids(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.HandleSlot(0, 99, nil); err == nil {
		t.Fatal("unknown client accepted")
	}
}

// naiveSystem builds a 4-client naive-bulk system.
func naiveSystem(t *testing.T, delivery Delivery) (*System, *auction.Exchange) {
	t.Helper()
	cfg := DefaultConfig(ModeNaiveBulk)
	cfg.NaiveK = 2
	cfg.Delivery = delivery
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, ex
}

func TestNaiveBulkScheduledDelivery(t *testing.T) {
	sys, _ := naiveSystem(t, DeliverScheduled)
	deliveries, stats := sys.StartPeriod(0, predict.Period{})
	// 4 clients x K=2 predicted slots: admission = 8, one replica each.
	if stats.Sold != 8 || stats.Replicas != 8 {
		t.Fatalf("stats %+v", stats)
	}
	if len(deliveries) != 4 {
		t.Fatalf("deliveries %+v", deliveries)
	}
	for _, d := range deliveries {
		if d.Ads != 2 {
			t.Fatalf("uneven naive spread: %+v", deliveries)
		}
	}
	// Slots are served from cache, displays billed.
	out, err := sys.HandleSlot(simclock.At(time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || out.Fetched {
		t.Fatalf("outcome %+v", out)
	}
}

func TestNaiveBulkPiggybackDelivery(t *testing.T) {
	sys, _ := naiveSystem(t, DeliverPiggyback)
	deliveries, _ := sys.StartPeriod(0, predict.Period{})
	if deliveries != nil {
		t.Fatal("piggyback should not deliver at period start")
	}
	out, err := sys.HandleSlot(simclock.At(time.Minute), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.PiggybackAds != 2 || !out.CacheHit {
		t.Fatalf("outcome %+v", out)
	}
	// Second slot: bundle already local.
	out, _ = sys.HandleSlot(simclock.At(2*time.Minute), 1, nil)
	if out.PiggybackAds != 0 || !out.CacheHit {
		t.Fatalf("outcome %+v", out)
	}
	// Third slot: cache empty, fallback.
	out, _ = sys.HandleSlot(simclock.At(3*time.Minute), 1, nil)
	if !out.Fetched {
		t.Fatalf("outcome %+v", out)
	}
}

func TestEndPeriodSweepsUnshown(t *testing.T) {
	sys, ex := naiveSystem(t, DeliverScheduled)
	_, stats := sys.StartPeriod(0, predict.Period{})
	// Show exactly one ad.
	if _, err := sys.HandleSlot(simclock.At(time.Minute), 0, nil); err != nil {
		t.Fatal(err)
	}
	// Sweep well past the deadline (period x DeadlineFactor).
	violations := sys.EndPeriod(simclock.At(24*time.Hour), predict.Period{})
	if violations != stats.Sold-1 {
		t.Fatalf("violations %d want %d", violations, stats.Sold-1)
	}
	l := ex.Ledger()
	if l.Billed != 1 || int(l.Violations) != stats.Sold-1 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestPredictiveEndToEndPeriod(t *testing.T) {
	cfg := DefaultConfig(ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.Overbook.CacheCap = 8
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(3), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up predictors: 5 same-time-of-day periods (one per day) of 2
	// slots per client — the percentile model conditions on period-of-day.
	window := cfg.Server.Period
	for pi := 0; pi < 5; pi++ {
		p := predict.Period{Index: pi * 24, OfDay: 0}
		for c := 0; c < 3; c++ {
			sys.Server().ObserveSlot(c)
			sys.Server().ObserveSlot(c)
		}
		sys.EndPeriod(simclock.Time(pi)*simclock.Day+simclock.Time(window), p)
	}
	p := predict.Period{Index: 5 * 24, OfDay: 0}
	deliveries, stats := sys.StartPeriod(5*simclock.Day, p)
	if stats.Sold == 0 || stats.Placed == 0 {
		t.Fatalf("predictive sold nothing: %+v", stats)
	}
	if len(deliveries) == 0 {
		t.Fatal("no deliveries")
	}
	// Replication: predictive mode with flaky clients replicates > 1x.
	if stats.MeanK() < 1 {
		t.Fatalf("mean k %v", stats.MeanK())
	}
	// Serve a slot from cache.
	now := 5*simclock.Day + simclock.Minute
	out, err := sys.HandleSlot(now, deliveries[0].Client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatalf("outcome %+v", out)
	}
}

func TestOracleModeNoViolationsWhenExact(t *testing.T) {
	cfg := DefaultConfig(ModeOracle)
	cfg.Server.Period = time.Hour
	ex := deepExchange(t)
	// Every client has exactly 2 slots in period 0.
	series := func(int) []int { return []int{2, 2} }
	sys, err := New(cfg, ex, ids(3), series, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := predict.PeriodOf(0, cfg.Server.Period)
	_, stats := sys.StartPeriod(0, p)
	if stats.Sold != 6 {
		t.Fatalf("oracle should sell exactly 6, got %+v", stats)
	}
	// Fire exactly the predicted slots.
	for c := 0; c < 3; c++ {
		for k := 0; k < 2; k++ {
			now := simclock.Time(c*10+k+1) * simclock.Minute
			out, err := sys.HandleSlot(now, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !out.CacheHit {
				t.Fatalf("oracle slot missed cache: client %d slot %d %+v", c, k, out)
			}
		}
	}
	if v := sys.EndPeriod(simclock.Time(time.Hour+time.Minute), p); v != 0 {
		t.Fatalf("oracle violations %d", v)
	}
	l := ex.Ledger()
	if l.Billed != 6 || l.FreeShows != 0 || l.Violations != 0 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestRevenueLossFromRacingReplicas(t *testing.T) {
	// Force heavy replication and slow sync so two clients race.
	cfg := DefaultConfig(ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.SyncDelay = 24 * time.Hour // cancellations effectively never propagate
	cfg.Server.Overbook.FixedReplicas = 2
	cfg.Server.Overbook.AdmissionEpsilon = 0.45 // tiny population: keep admission > 0
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Train both predictors: 1 slot in the same period-of-day each day.
	for pi := 0; pi < 6; pi++ {
		p := predict.Period{Index: pi * 24, OfDay: 0}
		sys.Server().ObserveSlot(0)
		sys.Server().ObserveSlot(1)
		sys.EndPeriod(simclock.Time(pi)*simclock.Day+simclock.Hour, p)
	}
	p := predict.Period{Index: 6 * 24, OfDay: 0}
	_, stats := sys.StartPeriod(6*simclock.Day, p)
	if stats.Replicas != 2*stats.Placed {
		t.Fatalf("stats %+v", stats)
	}
	// Both clients display their replica of the same impression.
	o1, err := sys.HandleSlot(6*simclock.Day+simclock.Minute, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sys.HandleSlot(6*simclock.Day+2*simclock.Minute, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o1.CacheHit || !o2.CacheHit {
		t.Fatalf("outcomes %+v %+v", o1, o2)
	}
	if o1.Impression != o2.Impression {
		t.Fatalf("expected the same impression to race, got %d and %d", o1.Impression, o2.Impression)
	}
	l := ex.Ledger()
	if l.Billed != 1 || l.FreeShows != 1 || l.FreeUSD <= 0 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestCancellationPreventsRace(t *testing.T) {
	// Fast sync: the second client knows and skips to a fresh ad.
	cfg := DefaultConfig(ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.ReportLatency = 0
	cfg.Server.SyncDelay = time.Second
	cfg.Server.Overbook.FixedReplicas = 2
	cfg.Server.Overbook.AdmissionEpsilon = 0.45
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 6; pi++ {
		p := predict.Period{Index: pi * 24, OfDay: 0}
		sys.Server().ObserveSlot(0)
		sys.Server().ObserveSlot(1)
		sys.EndPeriod(simclock.Time(pi)*simclock.Day+simclock.Hour, p)
	}
	p := predict.Period{Index: 6 * 24, OfDay: 0}
	sys.StartPeriod(6*simclock.Day, p)
	o1, _ := sys.HandleSlot(6*simclock.Day+simclock.Minute, 0, nil)
	o2, _ := sys.HandleSlot(6*simclock.Day+10*simclock.Minute, 1, nil)
	if o1.CacheHit && o2.CacheHit && o1.Impression == o2.Impression {
		t.Fatal("cancellation did not prevent the race")
	}
	if ex.Ledger().FreeShows != 0 {
		t.Fatalf("ledger %+v", ex.Ledger())
	}
}

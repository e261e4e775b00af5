package adserver

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func deepDemand(t *testing.T) *auction.Exchange {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 1e6},
		{ID: 1, BidCPM: 1000, BudgetUSD: 1e6},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// constPredictor always forecasts the same estimate.
type constPredictor struct {
	est      predict.Estimate
	observed []int
}

func (c *constPredictor) Name() string                            { return "const" }
func (c *constPredictor) Predict(predict.Period) predict.Estimate { return c.est }
func (c *constPredictor) Observe(_ predict.Period, slots int) {
	c.observed = append(c.observed, slots)
}

func newServer(t *testing.T, cfg Config, ex *auction.Exchange, nClients int, est predict.Estimate) (*Server, map[int]*constPredictor) {
	t.Helper()
	preds := map[int]*constPredictor{}
	ids := make([]int, nClients)
	for i := range ids {
		ids[i] = i
	}
	s, err := New(cfg, ex, ids, func(id int) predict.Predictor {
		p := &constPredictor{est: est}
		preds[id] = p
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, preds
}

func TestStartPeriodSellsAndBundles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Overbook.FixedReplicas = 2
	cfg.Overbook.CacheCap = 100
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 10, predict.Estimate{Slots: 10, Mean: 10, NoShowProb: 0.1})

	bundles, stats := s.StartPeriod(0, predict.Period{})
	if stats.PredictedSlots != 100 {
		t.Fatalf("predicted %v", stats.PredictedSlots)
	}
	// Admission sells below the mean but near it.
	if stats.Admitted <= 50 || stats.Admitted >= 100 {
		t.Fatalf("admitted %d", stats.Admitted)
	}
	if stats.Sold != stats.Admitted {
		t.Fatalf("deep demand should fill: sold %d admitted %d", stats.Sold, stats.Admitted)
	}
	if stats.Placed != stats.Sold {
		t.Fatalf("placed %d sold %d", stats.Placed, stats.Sold)
	}
	if got := stats.MeanK(); got != 2 {
		t.Fatalf("mean k %v", got)
	}
	// Every ad in a bundle carries the configured deadline.
	for _, b := range bundles {
		for _, ad := range b.Ads {
			if ad.Deadline != simclock.Time(cfg.Deadline()) {
				t.Fatalf("deadline %v want %v", ad.Deadline, cfg.Deadline())
			}
		}
	}
	// Total replicas across bundles match stats.
	total := 0
	for _, b := range bundles {
		total += len(b.Ads)
	}
	if total != stats.Replicas {
		t.Fatalf("bundle ads %d != replicas %d", total, stats.Replicas)
	}
}

func TestStartPeriodNoDemandNoSupply(t *testing.T) {
	cfg := DefaultConfig()
	// Zero supply: no candidates predict anything.
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 5, predict.Estimate{Slots: 0, NoShowProb: 1})
	bundles, stats := s.StartPeriod(0, predict.Period{})
	if bundles != nil || stats.Admitted != 0 {
		t.Fatalf("expected nothing: %+v", stats)
	}
	// Supply but no demand.
	empty, err := auction.NewExchange(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newServer(t, cfg, empty, 5, predict.Estimate{Slots: 10, Mean: 10, NoShowProb: 0.1})
	bundles, stats = s2.StartPeriod(0, predict.Period{})
	if bundles != nil || stats.Sold != 0 {
		t.Fatalf("expected no sales: %+v", stats)
	}
}

func TestReportDisplayAndCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportLatency = time.Minute
	cfg.SyncDelay = 10 * time.Minute
	cfg.Overbook.FixedReplicas = 2
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 4, predict.Estimate{Slots: 5, Mean: 5, NoShowProb: 0.2})
	bundles, _ := s.StartPeriod(0, predict.Period{})
	if len(bundles) == 0 {
		t.Fatal("no bundles")
	}
	id := bundles[0].Ads[0].ID

	displayAt := simclock.At(5 * time.Minute)
	if err := s.ReportDisplay(id, displayAt); err != nil {
		t.Fatal(err)
	}
	// Cancellation propagates at display + latency + sync = 16 min.
	if s.CancellationKnown(id, simclock.At(15*time.Minute)) {
		t.Fatal("cancellation known too early")
	}
	if !s.CancellationKnown(id, simclock.At(16*time.Minute)) {
		t.Fatal("cancellation should be known at 16m")
	}
	if s.CancellationKnown(999999, simclock.At(time.Hour)) {
		t.Fatal("unclaimed impression reported cancelled")
	}
	// First claim time sticks even if a duplicate report arrives.
	if err := s.ReportDisplay(id, simclock.At(20*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if !s.CancellationKnown(id, simclock.At(16*time.Minute)) {
		t.Fatal("claim time moved on duplicate report")
	}
	l := ex.Ledger()
	if l.Billed != 1 || l.FreeShows != 1 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestEndPeriodTrainsAndSweeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	ex := deepDemand(t)
	s, preds := newServer(t, cfg, ex, 3, predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.5})
	_, stats := s.StartPeriod(0, predict.Period{})
	if stats.Sold == 0 {
		t.Fatal("nothing sold")
	}
	s.ObserveSlot(0)
	s.ObserveSlot(0)
	s.ObserveSlot(2)
	expired := s.EndPeriod(simclock.At(2*time.Hour), predict.Period{})
	if expired != stats.Sold {
		t.Fatalf("expired %d want all %d (nothing displayed)", expired, stats.Sold)
	}
	if got := preds[0].observed; len(got) != 1 || got[0] != 2 {
		t.Fatalf("client 0 observed %v", got)
	}
	if got := preds[1].observed; len(got) != 1 || got[0] != 0 {
		t.Fatalf("client 1 observed %v", got)
	}
	if got := preds[2].observed; len(got) != 1 || got[0] != 1 {
		t.Fatalf("client 2 observed %v", got)
	}
	// Counters reset.
	s.ObserveSlot(0)
	s.EndPeriod(simclock.At(3*time.Hour), predict.Period{})
	if got := preds[0].observed; len(got) != 2 || got[1] != 1 {
		t.Fatalf("reset failed: %v", got)
	}
}

func TestOnDemandSell(t *testing.T) {
	ex := deepDemand(t)
	s, _ := newServer(t, DefaultConfig(), ex, 1, predict.Estimate{})
	imp, ok := s.OnDemandSell(simclock.At(time.Minute), 0, []trace.Category{trace.CatGame})
	if !ok || imp.PriceUSD <= 0 {
		t.Fatalf("on-demand sale failed: %+v ok=%v", imp, ok)
	}
	l := ex.Ledger()
	if l.Billed != 1 || l.Violations != 0 {
		t.Fatalf("ledger %+v", l)
	}
	// No demand case.
	empty, _ := auction.NewExchange(nil, 0)
	s2, _ := newServer(t, DefaultConfig(), empty, 1, predict.Estimate{})
	if _, ok := s2.OnDemandSell(0, 0, nil); ok {
		t.Fatal("sale from empty exchange")
	}
}

func TestAggregateHints(t *testing.T) {
	ex := deepDemand(t)
	ids := []int{0, 1}
	s, err := New(DefaultConfig(), ex, ids, func(int) predict.Predictor {
		return &constPredictor{}
	}, func(id int) []trace.Category {
		if id == 0 {
			return []trace.Category{trace.CatGame, trace.CatNews}
		}
		return []trace.Category{trace.CatGame, trace.CatSocial}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.aggregateHintsOf(s.clientIDs)
	if len(got) != 3 {
		t.Fatalf("hints %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	ex := deepDemand(t)
	mk := func(int) predict.Predictor { return &constPredictor{} }
	if _, err := New(Config{}, ex, nil, mk, nil); err == nil {
		t.Fatal("zero config should fail validation")
	}
	cfg := DefaultConfig()
	if _, err := New(cfg, nil, nil, mk, nil); err == nil {
		t.Fatal("nil exchange should error")
	}
	if _, err := New(cfg, ex, nil, nil, nil); err == nil {
		t.Fatal("nil factory should error")
	}
	bad := cfg
	bad.Overbook.MaxReplicas = 0
	if _, err := New(bad, ex, nil, mk, nil); err == nil {
		t.Fatal("bad overbook config should error")
	}
	bad2 := cfg
	bad2.SyncDelay = -time.Second
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative delay should error")
	}
}

func TestDeadlineDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 2 * time.Hour
	// Default factor 1.5 grants a half-period grace window.
	if cfg.Deadline() != 3*time.Hour {
		t.Fatalf("deadline %v want 3h", cfg.Deadline())
	}
	cfg.DeadlineFactor = 0
	if cfg.Deadline() != 2*time.Hour {
		t.Fatalf("zero factor should mean one period, got %v", cfg.Deadline())
	}
	cfg.DeadlineFactor = 0.125
	if cfg.Deadline() != 15*time.Minute {
		t.Fatalf("factor 0.125 of 2h should give 15m, got %v", cfg.Deadline())
	}
	bad := DefaultConfig()
	bad.DeadlineFactor = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative factor accepted")
	}
	bad = DefaultConfig()
	bad.TopUpCap = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative TopUpCap accepted")
	}
}

func TestReplicaHolders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Overbook.FixedReplicas = 3
	cfg.Overbook.CacheCap = 100
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 5, predict.Estimate{Slots: 4, Mean: 4, NoShowProb: 0.3})
	bundles, _ := s.StartPeriod(0, predict.Period{})
	if len(bundles) == 0 {
		t.Fatal("no bundles")
	}
	id := bundles[0].Ads[0].ID
	holders := s.ReplicaHolders(id)
	if len(holders) != 3 {
		t.Fatalf("holders %v", holders)
	}
	// Mutating the returned slice must not affect internal state.
	holders[0] = -1
	if s.ReplicaHolders(id)[0] == -1 {
		t.Fatal("internal state exposed")
	}
	// Overbooking invariant: k distinct clients.
	seen := map[int]bool{}
	for _, h := range s.ReplicaHolders(id) {
		if seen[h] {
			t.Fatal("duplicate holder")
		}
		seen[h] = true
	}
}

func TestSaveLoadPredictors(t *testing.T) {
	ex := deepDemand(t)
	ids := []int{0, 1, 2}
	mk := func(int) predict.Predictor { return predict.NewPercentileHistogram(0.9) }
	s1, err := New(DefaultConfig(), ex, ids, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Train distinctive per-client histories.
	for day := 0; day < 6; day++ {
		for _, id := range ids {
			for k := 0; k <= id*2; k++ {
				s1.ObserveSlot(id)
			}
		}
		s1.EndPeriod(simclock.Time(day)*simclock.Day+simclock.Hour, predict.Period{Index: day * 6, OfDay: 0})
	}
	var buf bytes.Buffer
	if err := s1.SavePredictors(&buf); err != nil {
		t.Fatal(err)
	}

	ex2 := deepDemand(t)
	s2, err := New(DefaultConfig(), ex2, ids, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadPredictors(&buf); err != nil {
		t.Fatal(err)
	}
	p := predict.Period{Index: 6 * 6, OfDay: 0}
	for _, id := range ids {
		a := s1.Predictor(id).Predict(p)
		b := s2.Predictor(id).Predict(p)
		if a != b {
			t.Fatalf("client %d: restored prediction %+v != %+v", id, b, a)
		}
	}
	// Unknown clients in the snapshot are skipped silently.
	var buf2 bytes.Buffer
	if err := s1.SavePredictors(&buf2); err != nil {
		t.Fatal(err)
	}
	s3, err := New(DefaultConfig(), ex2, []int{0}, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.LoadPredictors(&buf2); err != nil {
		t.Fatal(err)
	}
	// Garbage input errors.
	if err := s3.LoadPredictors(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestOpsStats(t *testing.T) {
	ex := deepDemand(t)
	s, _ := newServer(t, DefaultConfig(), ex, 2, predict.Estimate{Slots: 3, Mean: 3, NoShowProb: 0.1})
	if got := s.Ops(); got.Rounds != 0 {
		t.Fatalf("fresh server ops %+v", got)
	}
	// Period 1: forecast 6, actual 3 -> relative error 1.0.
	s.StartPeriod(0, predict.Period{})
	s.ObserveSlot(0)
	s.ObserveSlot(0)
	s.ObserveSlot(1)
	s.EndPeriod(simclock.Hour*7, predict.Period{})
	got := s.Ops()
	if got.Rounds != 1 {
		t.Fatalf("ops %+v", got)
	}
	if got.ForecastErrP50 != 1.0 {
		t.Fatalf("ops %+v want err 1.0", got)
	}
	// A period with zero actual slots is not counted (no denominator).
	s.StartPeriod(simclock.Hour*8, predict.Period{})
	s.EndPeriod(simclock.Hour*16, predict.Period{})
	if got := s.Ops(); got.Rounds != 1 {
		t.Fatalf("zero-slot period should not count: %+v", got)
	}
}

// Ops is the one Server method documented safe to call concurrently
// with period processing (the ops metrics live behind their own lock).
// This test races a stats scraper against the serving lifecycle; it is
// meaningful under `go test -race`.
func TestOpsConcurrentWithPeriods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 4, predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Ops()
		}
	}()
	for round := 0; round < 10; round++ {
		s.StartPeriod(simclock.At(time.Duration(round)*time.Hour), predict.Period{Index: round})
		for id := 0; id < 4; id++ {
			s.ObserveSlot(id)
		}
		s.EndPeriod(simclock.At(time.Duration(round+1)*time.Hour), predict.Period{Index: round})
	}
	<-done

	ops := s.Ops()
	if ops.Rounds != 10 {
		t.Fatalf("rounds %d want 10", ops.Rounds)
	}
	// 8 predicted (4 clients x 2) vs 4 actual slots each round: relative
	// error exactly 1 in every observation, so both quantiles sit at 1.
	if ops.ForecastErrP50 != 1 || ops.ForecastErrP95 != 1 {
		t.Fatalf("forecast error quantiles %+v", ops)
	}
}

package predict

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func testPopulation(t *testing.T, users, days int) (*trace.Population, *trace.Catalog) {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Users = users
	cfg.Days = days
	pop, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop, trace.NewCatalog(trace.DefaultCatalog())
}

func TestEvalRunBasics(t *testing.T) {
	series := []int{5, 5, 5, 5, 5, 9}
	periods := periodsFor(len(series), time.Hour)
	var e Eval
	if err := e.Run(NewLastPeriod(), series, periods, 2); err != nil {
		t.Fatal(err)
	}
	if e.TestPeriods() != 4 {
		t.Fatalf("test periods=%d", e.TestPeriods())
	}
	// last-period predicts 5 everywhere; the final actual 9 is an
	// under-prediction of 4.
	if e.Under.Quantile(1) != 4 || e.Over.Quantile(1) != 0 {
		t.Fatalf("under max=%v over max=%v", e.Under.Quantile(1), e.Over.Quantile(1))
	}
	if e.UnderFrac() != 0.25 {
		t.Fatalf("under frac=%v", e.UnderFrac())
	}
}

func TestEvalRunErrors(t *testing.T) {
	series := []int{1, 2}
	periods := periodsFor(3, time.Hour)
	var e Eval
	if err := e.Run(NewLastPeriod(), series, periods, 0); err == nil {
		t.Fatal("length mismatch should error")
	}
	periods = periodsFor(2, time.Hour)
	if err := e.Run(NewLastPeriod(), series, periods, 5); err == nil {
		t.Fatal("trainLen out of range should error")
	}
}

func TestEvaluatePopulationRanksPredictors(t *testing.T) {
	pop, cat := testPopulation(t, 25, 14)
	factories := StandardFactories(0.9)
	evals, err := EvaluatePopulation(pop, cat, factories, 30*time.Second, 4*time.Hour, 10)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Eval{}
	for _, e := range evals {
		byName[e.PredictorName] = e
	}
	oracle := byName["oracle"]
	if oracle.AbsErr.Mean() != 0 {
		t.Fatalf("oracle MAE %v", oracle.AbsErr.Mean())
	}
	pct := byName["pctile-hist-0.9"]
	last := byName["last-period"]
	// The design property: the percentile model under-predicts much less
	// often than naive persistence.
	if pct.UnderFrac() >= last.UnderFrac() {
		t.Fatalf("pctile under-frac %v should beat last-period %v",
			pct.UnderFrac(), last.UnderFrac())
	}
	// And its mean under-prediction (slots that force on-demand fetches)
	// is lower too.
	if pct.Under.Mean() >= last.Under.Mean() {
		t.Fatalf("pctile mean under %v should beat last-period %v",
			pct.Under.Mean(), last.Under.Mean())
	}
	// Every non-oracle predictor should have nonzero error.
	for name, e := range byName {
		if name == "oracle" {
			continue
		}
		if e.AbsErr.Mean() <= 0 {
			t.Errorf("%s: suspiciously perfect", name)
		}
	}
}

func TestEvaluatePopulationTrainTooLong(t *testing.T) {
	pop, cat := testPopulation(t, 3, 2)
	_, err := EvaluatePopulation(pop, cat, StandardFactories(0.9), 30*time.Second, 4*time.Hour, 10)
	if err == nil {
		t.Fatal("expected error when training exceeds span")
	}
}

func TestSeriesMatchesSlotsPerPeriod(t *testing.T) {
	pop, cat := testPopulation(t, 3, 3)
	u := pop.Users[0]
	series, periods := Series(u, cat, 30*time.Second, time.Hour, pop.Span)
	if len(series) != len(periods) {
		t.Fatal("length mismatch")
	}
	if len(series) != 72 {
		t.Fatalf("len=%d want 72", len(series))
	}
	for i, p := range periods {
		if p.Index != i {
			t.Fatalf("period %d has index %d", i, p.Index)
		}
	}
}

package predict

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Eval measures a predictor against one client's per-period slot series:
// train on a prefix, then walk the test suffix predicting each period
// before observing it (online evaluation, as deployed clients would).
type Eval struct {
	PredictorName string
	Window        time.Duration

	// Errors, per test period.
	Err       metrics.Sample // predicted - actual (signed)
	AbsErr    metrics.Sample // |predicted - actual|
	Under     metrics.Sample // max(actual - predicted, 0): forces on-demand fetches
	Over      metrics.Sample // max(predicted - actual, 0): returned inventory
	Actual    metrics.Sample
	Predicted metrics.Sample

	// UnderFrac is the fraction of test periods with any under-prediction.
	underPeriods, testPeriods int
}

// UnderFrac returns the fraction of test periods where the predictor
// under-predicted (the costly direction).
func (e *Eval) UnderFrac() float64 {
	if e.testPeriods == 0 {
		return 0
	}
	return float64(e.underPeriods) / float64(e.testPeriods)
}

// TestPeriods returns the number of evaluated periods.
func (e *Eval) TestPeriods() int { return e.testPeriods }

// Series converts a user trace into the per-period slot series the
// predictors consume, along with the Period descriptors.
func Series(u *trace.User, cat *trace.Catalog, refresh, window time.Duration, span simclock.Time) ([]int, []Period) {
	counts := trace.SlotsPerPeriod(u, cat, refresh, window, span)
	periods := make([]Period, len(counts))
	for i := range counts {
		periods[i] = PeriodOf(simclock.Time(i)*simclock.Time(window), window)
	}
	return counts, periods
}

// Run trains p on series[:trainLen] and evaluates online on the rest.
// The same Eval can be reused across clients by calling Run repeatedly;
// results accumulate.
func (e *Eval) Run(p Predictor, series []int, periods []Period, trainLen int) error {
	if len(series) != len(periods) {
		return fmt.Errorf("predict: series/periods length mismatch: %d vs %d", len(series), len(periods))
	}
	if trainLen < 0 || trainLen > len(series) {
		return fmt.Errorf("predict: trainLen %d out of range [0,%d]", trainLen, len(series))
	}
	e.PredictorName = p.Name()
	for i := 0; i < trainLen; i++ {
		p.Observe(periods[i], series[i])
	}
	for i := trainLen; i < len(series); i++ {
		est := p.Predict(periods[i])
		actual := float64(series[i])
		err := est.Slots - actual
		e.Err.Add(err)
		e.AbsErr.Add(abs(err))
		under := 0.0
		if err < 0 {
			under = -err
			e.underPeriods++
		}
		over := 0.0
		if err > 0 {
			over = err
		}
		e.Under.Add(under)
		e.Over.Add(over)
		e.Actual.Add(actual)
		e.Predicted.Add(est.Slots)
		e.testPeriods++
		p.Observe(periods[i], series[i])
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Factory builds a fresh predictor per client; evaluation across a
// population must not share state between clients.
type Factory struct {
	Name string
	New  func(series []int) Predictor // series provided for the oracle
}

// StandardFactories returns the predictor lineup compared in the F3
// experiment. pctile is the percentile-histogram operating point.
func StandardFactories(pctile float64) []Factory {
	return []Factory{
		{Name: "last-period", New: func([]int) Predictor { return NewLastPeriod() }},
		{Name: "moving-avg-6", New: func([]int) Predictor { return NewMovingAverage(6) }},
		{Name: "ewma", New: func([]int) Predictor { return NewEWMA(0.3) }},
		{Name: "tod-mean", New: func([]int) Predictor { return NewTimeOfDayMean() }},
		{Name: "markov", New: func([]int) Predictor { return NewMarkov() }},
		{Name: "pctile-hist", New: func([]int) Predictor { return NewPercentileHistogram(pctile) }},
		{Name: "adaptive-pctile", New: func([]int) Predictor {
			a, err := NewAdaptivePercentile(pctile, 0.15)
			if err != nil {
				panic(err) // constants above are valid; failure is a bug
			}
			return a
		}},
		{Name: "oracle", New: func(series []int) Predictor { return NewOracle(series) }},
	}
}

// EvaluatePopulation runs every factory over every user and returns one
// accumulated Eval per factory, in factory order.
func EvaluatePopulation(pop *trace.Population, cat *trace.Catalog, factories []Factory,
	refresh, window time.Duration, trainDays int) ([]*Eval, error) {

	evals := make([]*Eval, len(factories))
	for i := range evals {
		evals[i] = &Eval{Window: window}
	}
	perDay := PeriodsPerDay(window)
	trainLen := trainDays * perDay
	for _, u := range pop.Users {
		series, periods := Series(u, cat, refresh, window, pop.Span)
		if trainLen > len(series) {
			return nil, fmt.Errorf("predict: trainDays %d exceeds trace span", trainDays)
		}
		for i, f := range factories {
			if err := evals[i].Run(f.New(series), series, periods, trainLen); err != nil {
				return nil, err
			}
		}
	}
	return evals, nil
}

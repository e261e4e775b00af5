package predict

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentileHistogramProbAtMost(t *testing.T) {
	ph := NewPercentileHistogram(0.9)
	p := Period{OfDay: 2}
	for _, v := range []int{0, 1, 1, 2, 5} {
		ph.Observe(p, v)
	}
	// Laplace smoothing: P(<=k) = (count<=k + 1) / (n + 2) with n=5.
	cases := map[int]float64{
		-1: 1.0 / 7.0,
		0:  2.0 / 7.0,
		1:  4.0 / 7.0,
		2:  5.0 / 7.0,
		4:  5.0 / 7.0,
		5:  6.0 / 7.0,
		99: 6.0 / 7.0,
	}
	for k, want := range cases {
		if got := ph.CDF(p).ProbAtMost(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("ProbAtMost(%d)=%v want %v", k, got, want)
		}
	}
}

func TestProbAtMostUnknownContext(t *testing.T) {
	ph := NewPercentileHistogram(0.9)
	if got := ph.CDF(Period{OfDay: 5}).ProbAtMost(3); got != 1 {
		t.Fatalf("unknown context should be certain shortfall, got %v", got)
	}
	// Weekend falls back to weekday data.
	ph.Observe(Period{OfDay: 5, Weekend: false}, 10)
	if got := ph.CDF(Period{OfDay: 5, Weekend: true}).ProbAtMost(3); got >= 1 {
		t.Fatalf("weekend fallback failed: %v", got)
	}
}

func TestOracleProbAtMost(t *testing.T) {
	o := NewOracle([]int{3})
	if got := o.CDF(Period{Index: 0}).ProbAtMost(2); got != 0 {
		t.Fatalf("P(<=2) with 3 slots should be 0, got %v", got)
	}
	if got := o.CDF(Period{Index: 0}).ProbAtMost(3); got != 1 {
		t.Fatalf("P(<=3) with 3 slots should be 1, got %v", got)
	}
	if got := o.CDF(Period{Index: 7}).ProbAtMost(100); got != 1 {
		t.Fatalf("out of range should be 1, got %v", got)
	}
}

// The interface contract used by the overbooking planner.
func TestDistributionImplementations(t *testing.T) {
	var _ Distribution = NewPercentileHistogram(0.9)
	var _ Distribution = NewOracle(nil)
}

// Property: ProbAtMost is a CDF — monotone in k, within (0,1) after
// smoothing, and consistent with NoShowProb's zero fraction.
func TestProbAtMostCDFProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ph := NewPercentileHistogram(0.9)
		p := Period{OfDay: 1}
		for _, v := range raw {
			ph.Observe(p, int(v%12))
		}
		prev := -1.0
		for k := -1; k <= 14; k++ {
			q := ph.CDF(p).ProbAtMost(k)
			if q < prev-1e-12 || q <= 0 || q >= 1 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileHistogramVariance(t *testing.T) {
	ph := NewPercentileHistogram(0.9)
	p := Period{OfDay: 0}
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		ph.Observe(p, v)
	}
	est := ph.Predict(p)
	if math.Abs(est.Mean-5) > 1e-12 {
		t.Fatalf("Mean=%v", est.Mean)
	}
	if math.Abs(est.Var-32.0/7.0) > 1e-9 {
		t.Fatalf("Var=%v want %v", est.Var, 32.0/7.0)
	}
	// Single observation: variance must be 0, not NaN.
	ph2 := NewPercentileHistogram(0.9)
	ph2.Observe(p, 3)
	if est := ph2.Predict(p); est.Var != 0 {
		t.Fatalf("single-obs Var=%v", est.Var)
	}
}

func TestEstimateMeanVsSlots(t *testing.T) {
	// With a skewed history, the p90 estimate exceeds the mean — the
	// asymmetry the whole design leans on.
	ph := NewPercentileHistogram(0.9)
	p := Period{OfDay: 3}
	for i := 0; i < 20; i++ {
		v := 1
		if i%5 == 0 {
			v = 10
		}
		ph.Observe(p, v)
	}
	est := ph.Predict(p)
	if est.Slots <= est.Mean {
		t.Fatalf("conservative estimate %v should exceed mean %v", est.Slots, est.Mean)
	}
}

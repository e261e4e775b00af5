package predict

import (
	"testing"

	"repro/internal/simclock"
)

func TestAdaptiveValidation(t *testing.T) {
	for _, c := range []struct{ q, tgt float64 }{{0, 0.1}, {1, 0.1}, {0.9, 0}, {0.9, 1}} {
		if _, err := NewAdaptivePercentile(c.q, c.tgt); err == nil {
			t.Errorf("q=%v tgt=%v accepted", c.q, c.tgt)
		}
	}
	a, err := NewAdaptivePercentile(0.8, 0.15)
	if err != nil || a.Name() != "adaptive-pctile" || a.Percentile() != 0.8 {
		t.Fatalf("a=%+v err=%v", a, err)
	}
}

func TestAdaptiveRaisesOnUnderPrediction(t *testing.T) {
	a, _ := NewAdaptivePercentile(0.6, 0.1)
	r := simclock.NewRand(3)
	// A volatile series: frequent spikes above any low percentile.
	for i := 0; i < 200; i++ {
		p := Period{Index: i, OfDay: i % 6}
		a.Predict(p)
		v := 2
		if r.Bernoulli(0.5) {
			v = 20
		}
		a.Observe(p, v)
	}
	if a.Percentile() <= 0.6 {
		t.Fatalf("percentile should rise under chronic under-prediction: %v", a.Percentile())
	}
}

func TestAdaptiveLowersOnOverPrediction(t *testing.T) {
	a, _ := NewAdaptivePercentile(0.95, 0.2)
	// Perfectly flat usage: the forecast never under-predicts, so the
	// controller should relax toward the floor.
	for i := 0; i < 300; i++ {
		p := Period{Index: i, OfDay: i % 6}
		a.Predict(p)
		a.Observe(p, 5)
	}
	if a.Percentile() >= 0.95 {
		t.Fatalf("percentile should fall on flat usage: %v", a.Percentile())
	}
	if a.Percentile() < 0.5 {
		t.Fatalf("percentile escaped its floor: %v", a.Percentile())
	}
}

func TestAdaptiveBounded(t *testing.T) {
	a, _ := NewAdaptivePercentile(0.9, 0.05)
	r := simclock.NewRand(9)
	for i := 0; i < 1000; i++ {
		p := Period{Index: i, OfDay: i % 6}
		a.Predict(p)
		a.Observe(p, r.Poisson(4)*r.Intn(5))
	}
	if q := a.Percentile(); q < 0.5 || q > 0.99 {
		t.Fatalf("percentile out of bounds: %v", q)
	}
}

func TestAdaptiveDelegatesDistribution(t *testing.T) {
	a, _ := NewAdaptivePercentile(0.9, 0.15)
	p := Period{OfDay: 1}
	a.Observe(p, 3)
	a.Observe(p, 5)
	if got := a.CDF(p).ProbAtMost(4); got <= 0 || got >= 1 {
		t.Fatalf("ProbAtMost %v", got)
	}
	// Observe without a preceding Predict must not move the controller.
	before := a.Percentile()
	for i := 0; i < 50; i++ {
		a.Observe(p, 100)
	}
	if a.Percentile() != before {
		t.Fatal("controller moved without forecasts")
	}
}

package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); !almostEq(got, 50.5, 1e-9) {
		t.Fatalf("Median=%v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0=%v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1=%v", got)
	}
	if got := s.Quantile(0.9); !almostEq(got, 90.1, 1e-9) {
		t.Fatalf("q90=%v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sample should produce NaN")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestSampleMonotonicityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n); i++ {
			s.Add(r.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		vals := s.Values()
		if s.Quantile(0) != vals[0] || s.Quantile(1) != vals[len(vals)-1] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndPercentChange(t *testing.T) {
	if Ratio(1, 0) != 0 || Ratio(6, 3) != 2 {
		t.Fatal("Ratio wrong")
	}
	if PercentChange(0, 5) != 0 {
		t.Fatal("PercentChange with zero baseline should be 0")
	}
	if got := PercentChange(100, 40); got != 60 {
		t.Fatalf("PercentChange=%v", got)
	}
	if got := PercentChange(100, 150); got != -50 {
		t.Fatalf("PercentChange increase=%v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta, the 2nd", 2)
	tb.AddNote("n=%d", 2)
	s := tb.String()
	if s == "" || !containsAll(s, "demo", "alpha", "1.5", "note: n=2") {
		t.Fatalf("text render missing pieces:\n%s", s)
	}
	csv := tb.CSV()
	if !containsAll(csv, "name,value", `"beta, the 2nd"`) {
		t.Fatalf("csv render wrong:\n%s", csv)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(sub) == 0 || len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

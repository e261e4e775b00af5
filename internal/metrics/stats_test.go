package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N=%d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean=%v", s.Mean())
	}
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var=%v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max=%v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Fatalf("Sum=%v", s.Sum())
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty stream should be all zeros")
	}
	s.Add(3)
	if s.Var() != 0 || s.Mean() != 3 || s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-element stream stats wrong")
	}
}

func TestStreamAddN(t *testing.T) {
	var a, b Stream
	a.AddN(4, 3)
	for i := 0; i < 3; i++ {
		b.Add(4)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Fatal("AddN != repeated Add")
	}
}

// Property: merging two streams equals a single stream over the
// concatenated data.
func TestStreamMergeProperty(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b, all Stream
		for i := 0; i < int(na); i++ {
			x := r.NormFloat64() * 10
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb); i++ {
			x := r.NormFloat64() * 10
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return almostEq(a.Mean(), all.Mean(), 1e-9) &&
			almostEq(a.Var(), all.Var(), 1e-9) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

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
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.CDFAt(1)) {
		t.Fatal("empty sample should produce NaN")
	}
}

func TestSampleCDF(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 2, 3, 10})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {10, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("CDF(%v)=%v want %v", c.x, got, c.want)
		}
	}
}

// Property: quantile is monotone in q and bounded by min/max; CDF is
// monotone in x.
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
		prevC := -1.0
		for x := -300.0; x <= 300; x += 25 {
			c := s.CDFAt(x)
			if c < prevC || c < 0 || c > 1 {
				return false
			}
			prevC = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 42} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Fatalf("Total=%d", h.Total())
	}
	// Bins: [0,2) [2,4) [4,6) [6,8) [8,10); clamping puts -1 in bin 0 and
	// 10,42 in bin 4.
	want := []int64{3, 1, 1, 0, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d: got %d want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if !almostEq(h.BinCenter(0), 1, 1e-12) || !almostEq(h.BinCenter(4), 9, 1e-12) {
		t.Fatal("BinCenter wrong")
	}
	if !almostEq(h.Frac(0), 3.0/8.0, 1e-12) {
		t.Fatalf("Frac=%v", h.Frac(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram should panic")
		}
	}()
	NewHistogram(5, 5, 3)
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

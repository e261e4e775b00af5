// Package metrics provides the small statistics toolkit the simulator
// and experiment harness rely on: streaming moments, exact quantiles,
// CDFs, bootstrap confidence intervals, and plain-text / CSV table
// rendering for regenerating the paper's tables and figures.
package metrics

import (
	"math"
	"sort"
)

// Stream accumulates count/mean/variance online (Welford's algorithm)
// plus min and max. The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN incorporates x as if observed k times.
func (s *Stream) AddN(x float64, k int64) {
	for i := int64(0); i < k; i++ {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Stream) N() int64 { return s.n }

// Mean returns the sample mean, or 0 for an empty stream.
func (s *Stream) Mean() float64 { return s.mean }

// Sum returns the total of all observations.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// Var returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Min returns the smallest observation, or 0 for an empty stream.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty stream.
func (s *Stream) Max() float64 { return s.max }

// Merge combines another stream into s (parallel-variance formula).
func (s *Stream) Merge(o *Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Sample collects raw observations for exact quantiles and CDFs. The
// zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample; callers must not mutate it.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. Returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the sample mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// CDFAt returns the empirical CDF evaluated at x: the fraction of
// observations ≤ x. Returns NaN for an empty sample.
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, x)
	// Advance past equal values so that CDF is P(X <= x).
	for i < len(s.xs) && s.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// Point is an (x, y) pair for figure series.
type Point struct{ X, Y float64 }

// Ratio safely divides a by b, returning 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PercentChange returns the relative reduction of v versus baseline,
// in percent: 100*(baseline-v)/baseline. Returns 0 for a 0 baseline.
func PercentChange(baseline, v float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - v) / baseline
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

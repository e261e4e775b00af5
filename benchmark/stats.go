package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// what the benchmark contract's spread is defined on.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4 // outside [0,4] after a clamp: extrapolates, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// summary is one metric over repeated runs.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / |median|: the run-to-run noise a bound must
	// sit above.
	Spread float64 `json:"spread"`
}

func summarize(vs []float64) summary {
	q1, q3 := quartiles(vs)
	s := summary{N: len(vs), Median: median(vs), Q1: q1, Q3: q3}
	if s.Median != 0 {
		s.Spread = (q3 - q1) / math.Abs(s.Median)
	}
	return s
}

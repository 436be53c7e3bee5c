package main

import (
	"math"
	"sort"
)

// summary is a metric's distribution over one run's repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the middle two for even n);
// NaN for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the rule Python's
// statistics.quantiles(xs, n=4) uses (exclusive method), so the spreads
// irbench prints are the spreads the driver computes. With fewer than two
// samples both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	at := func(i int) float64 { // i = 1 or 3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after clamping, so the ends extrapolate
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the tail percentiles irbench may report, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// highestPercentile returns the highest tail percentile with at least ten
// samples beyond it among n samples — the only tail a sample of that size
// resolves — or 0 when even p90 has fewer (n < 100).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// The tolerance keeps 100-99.9 from reading as less than a tenth.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

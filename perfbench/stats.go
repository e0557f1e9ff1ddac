package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two samples
// and says nothing about the tail.
const minTail = 10

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between the two closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentile returns the p-th percentile of xs (0 < p < 100) and
// whether the sample supports it: at least minTail samples must rank
// above the percentile's position, so p50 needs 20 samples and p90
// needs 100.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	below := (p*n + 99) / 100 // ceil(p% of n), in integers
	if n-below < minTail {
		return 0, false
	}
	return quantile(xs, float64(p)/100), true
}

// ratio is a/b, or 0 when b is 0: a layer the workload never entered
// reads 0 rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import "testing"

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// printed only when at least ten samples rank above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p, n int
		ok   bool
	}{
		{50, 19, false}, {50, 20, true},
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
		{90, 0, false},
	} {
		_, ok := percentile(samples(c.n), c.p)
		if ok != c.ok {
			t.Errorf("p%d of %d samples: reported %v, want %v", c.p, c.n, ok, c.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := samples(5) // 1..5
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if v, ok := percentile(samples(100), 90); !ok || v < 90 || v > 91 {
		t.Errorf("p90 of 1..100 = %v, %v", v, ok)
	}
}

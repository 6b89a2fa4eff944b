package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 100}, {0.10, 10}, {0.01, 10}, {1, 100},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestMedianOfSlices(t *testing.T) {
	// Six per-slice values with one stalled slice: the reported figure is
	// the median, the stall shows only in the range.
	per := []float64{41.2, 40.8, 310.0, 41.0, 40.9, 41.4}
	s := summarize(per)
	if want := (41.0 + 41.2) / 2; s.Median != want {
		t.Errorf("median = %v, want %v", s.Median, want)
	}
	if s.Min != 40.8 || s.Max != 310.0 || s.N != 6 {
		t.Errorf("range = [%v, %v] n=%d, want [40.8, 310] n=6", s.Min, s.Max, s.N)
	}
	if per[2] != 310.0 {
		t.Error("summarize reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd-count median = %v, want 2", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([12,15,11,14,13,18,17,16,19,10], n=4) is
	// [11.75, 14.5, 17.25]; the spread is (17.25-11.75)/14.5.
	xs := []float64{12, 15, 11, 14, 13, 18, 17, 16, 19, 10}
	if got, want := quartileSpread(xs), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([1,2], n=4) extrapolates to [0.75, 1.5, 2.25].
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-value quartileSpread = %v, want %v", got, want)
	}
	if got := disagreement([]float64{100, 91}); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("two-set disagreement = %v, want 0.09", got)
	}
}

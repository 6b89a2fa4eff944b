package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule: the smallest value with at least p of the sample at or below it.
// It sorts xs in place. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without disturbing the caller's order.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a per-slice metric collapsed for reporting: the median of the
// slices plus their range.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Median: median(xs), Min: xs[0], Max: xs[0], N: len(xs)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with quartiles as Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them — the
// rule the benchmark's acceptance uses for run-to-run spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

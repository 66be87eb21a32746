package main

import (
	"math"
	"sort"
	"time"
)

// millis is d in milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supported reports whether n samples leave at least ten beyond the
// p-quantile — the rule for which percentile a sample can carry.
func supported(n int, p float64) bool { return float64(n)*(1-p) >= 10 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max − min) / median of xs: how far the segments of one run
// disagree.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

// segmentQuantile is the p-quantile reported for a window cut into
// segments: the median of the per-segment quantiles when every segment
// supports p, and otherwise the quantile of all samples pooled. The
// median over segments is what makes a number repeat on a shared
// machine: one disturbed segment moves it little.
func segmentQuantile(segs [][]float64, p float64) float64 {
	per := make([]float64, 0, len(segs))
	var pooled []float64
	each := true
	for _, s := range segs {
		s = append([]float64(nil), s...)
		sort.Float64s(s)
		each = each && supported(len(s), p)
		per = append(per, percentile(s, p))
		pooled = append(pooled, s...)
	}
	if each {
		return median(per)
	}
	sort.Float64s(pooled)
	return percentile(pooled, p)
}

package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p ≤ 100) of samples
// by the nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. samples is sorted in place. It returns NaN for
// an empty set.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged. It returns NaN for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a per-op rate of a layer
// that did no operations on this workload reads zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

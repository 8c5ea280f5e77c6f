package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileExact(t *testing.T) {
	// 1..100 shuffled: nearest rank puts p50 at 50 and p99 at 99.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}

	// A failed batch counts as slower than any limit, so one failure in
	// 50 samples is the p99.
	ys := []float64{failedRTTus}
	for i := 0; i < 49; i++ {
		ys = append(ys, 100)
	}
	if got := percentile(ys, 99); got != failedRTTus {
		t.Errorf("p99 with a failed batch = %v, want %v", got, failedRTTus)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default
// and Python's statistics.quantiles(method="inclusive"). xs is sorted in
// place. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0]
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// durPercentile is percentile over durations, in the given unit.
func durPercentile(ds []time.Duration, p float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return percentile(xs, p)
}

// tailPercentile picks the highest of p99.9/p99/p90 that has at least ten
// samples beyond it, so a reported tail is never one or two outliers.
// It returns the percentile and whether any qualified.
func tailPercentile(n int) (float64, bool) {
	for _, perMille := range []int{999, 990, 900} {
		if n*(1000-perMille)/1000 >= 10 {
			return float64(perMille) / 10, true
		}
	}
	return 0, false
}

// overhead is the relative cost of tracing: traced over untraced, minus
// one. A non-positive base yields NaN.
func overhead(untraced, traced float64) float64 {
	if untraced <= 0 {
		return math.NaN()
	}
	return traced/untraced - 1
}

// blockMedian times fn over blocks of n calls and returns the median of
// the per-block mean, in nanoseconds per call — robust to a GC pause or a
// preemption landing in one block.
func blockMedian(blocks, n int, fn func()) float64 {
	per := make([]float64, blocks)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// supports reports whether n samples support percentile q in (0,1): at
// least minBeyond of them lie strictly above the q-th.
func supports(n int, q float64) bool {
	return float64(n)*(1-q)+1e-9 >= minBeyond // 1-q is inexact, e.g. for q=0.9
}

// tailPercentile is the highest of the usual reporting percentiles that n
// samples support, or 0 when they support none.
func tailPercentile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if supports(n, q) {
			return q
		}
	}
	return 0
}

// quantile returns the q-th quantile of ascending-sorted xs by linear
// interpolation between closest ranks (NaN for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailWindows is the most windows windowedP99 splits a sample into.
const tailWindows = 8

// windowedP99 is the tail of latencies listed in the order they completed:
// the 99th percentile of each of up to tailWindows consecutive windows,
// each large enough to support it, and the median of those. One stall of
// the shared host moves one window's tail, not the run's. It also returns
// the per-window tails, or NaN when not even one window supports a p99.
func windowedP99(lat []float64) (float64, []float64) {
	w := tailWindows
	for w > 0 && !supports(len(lat)/w, 0.99) {
		w--
	}
	if w == 0 {
		return math.NaN(), nil
	}
	tails := make([]float64, w)
	for i := range tails {
		tails[i] = quantile(sortedCopy(lat[i*len(lat)/w:(i+1)*len(lat)/w]), 0.99)
	}
	return median(tails), tails
}

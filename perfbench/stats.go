package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric may report, lowest
// first. The tail rule picks the highest of them that still leaves at
// least tailMinBeyond samples above it, so the reported tail is always
// backed by real observations rather than extrapolated. The ladder stops
// at p95: above it, warm-pf's tail is set by millisecond-long host stalls.
// Across ten seeds its p99.9 spread 0.19–0.44 (interquartile range over
// median) and its p99 up to 1.3 while the host was busy, too wide to
// carry a bound.
var tailLadder = []float64{50, 75, 90, 95}

// tailMinBeyond is how many samples must lie beyond the tail percentile.
const tailMinBeyond = 10

// tailPercentile returns the highest ladder percentile that has at least
// tailMinBeyond of n samples beyond its nearest-rank position, and how many
// samples lie beyond it. Below 2·tailMinBeyond samples no percentile
// qualifies, and the median stands in for the tail.
func tailPercentile(n int) (pct float64, beyond int) {
	for i := len(tailLadder) - 1; i > 0; i-- {
		p := tailLadder[i]
		if b := n - nearestRank(p, n); b >= tailMinBeyond {
			return p, b
		}
	}
	return tailLadder[0], n - nearestRank(tailLadder[0], max(n, 1))
}

// nearestRank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps binary rounding of p (99.9 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted (ascending)
// values; NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// median returns the median of values (average of the middle pair for an
// even count), without modifying them; NaN for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

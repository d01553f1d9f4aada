package main

import (
	"math"
	"slices"
)

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one outlier.
const minTailBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and how
// many samples lie strictly beyond its rank. xs need not be sorted.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := rank(len(s), q)
	return s[r-1], len(s) - r
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps 0.99×1000 at rank 990 despite binary rounding.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

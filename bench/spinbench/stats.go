package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads computed here match spreads
// computed by any script that checks the benchmark from outside (with two
// values it extrapolates, as Python does). A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail estimated from fewer is noise.
const minTail = 10

// tail returns the p-quantile (0 < p < 1) of samples by nearest rank, and
// false when fewer than minTail samples lie beyond it. Failed operations
// enter as +Inf, so a failure can only push a percentile up.
func tail(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	// rank is the 1-based nearest rank; the epsilon keeps p*n from
	// rounding up past an exact integer (0.99*1000 is not exactly 990).
	rank := max(1, int(math.Ceil(p*float64(n)-1e-9)))
	if n-rank < minTail {
		return 0, false
	}
	return sorted(samples)[rank-1], true
}

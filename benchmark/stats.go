package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// spreads computed here agree with ones computed from the JSON records in
// Python. A single value is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// and ok=false when fewer than ten samples lie beyond it: a tail figure
// resting on a handful of samples says nothing about the tail.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	k = max(1, min(k, n))
	if n-k < 10 {
		return 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	return s[k-1], true
}

package main

import (
	"math"
	"slices"
)

// median returns the middle value, averaging the two middle values of
// an even count (0 for no values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(v, n=4) (the default, "exclusive"), so
// spreads read the same as in tools built on it. One value is its own
// quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// nearestRank returns the p-th percentile of sorted values by the
// nearest-rank method (0 for no values).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of sorted by
// linear interpolation between closest ranks (the "inclusive" method,
// Python's statistics.quantiles(method="inclusive") convention).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (its default "exclusive"
// method); run-to-run spread is judged with exactly this definition.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	return exclusiveCut(s, 1, 4), exclusiveCut(s, 2, 4), exclusiveCut(s, 3, 4)
}

// exclusiveCut is cut point i of n groups over sorted data s (len ≥ 2)
// under Python's exclusive method.
func exclusiveCut(s []float64, i, n int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// median of values (any order).
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

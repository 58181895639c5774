package main

import (
	"math"
	"sort"
	"time"
)

// us and ms convert a duration to fractional micro- and milliseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that the value is set by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// p99OrMedian returns the 99th percentile (nearest rank) when at least
// minBeyond samples lie beyond it, and the median otherwise; isP99 says
// which. Every tail this benchmark prints goes through here.
func p99OrMedian(xs []float64) (v float64, isP99 bool) {
	n := len(xs)
	rank := int(math.Ceil(0.99 * float64(n)))
	if n-rank < minBeyond {
		return median(xs), false
	}
	return sorted(xs)[rank-1], true
}

// mean returns the arithmetic mean, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the A/A report computes spreads exactly as the driver does. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

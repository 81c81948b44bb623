package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count) without reordering the caller's slice. An empty slice is 0.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. An empty slice is 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[lo], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the acceptance check applies to ten runs. Fewer than two values have
// no spread: both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the median;
// 0 when the median is 0.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

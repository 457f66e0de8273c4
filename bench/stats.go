package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may be reported at, ascending.
var tailLadder = []float64{50, 75, 80, 90, 95, 99, 99.9}

// percentileValid reports whether n samples leave at least ten beyond the
// p-th percentile — the rule below which a percentile is one outlier's
// opinion rather than a measurement.
func percentileValid(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// highestPercentile returns the highest ladder percentile that n samples
// support, or 0 when even the median has fewer than ten samples beyond it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if percentileValid(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for an empty set. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the run's tail statistic: the highest percentile the sample
// count supports above the median, or the slowest sample when it supports
// none. The second result is the percentile used (100 for the maximum).
func tail(xs []float64) (float64, float64) {
	if p := highestPercentile(len(xs)); p > 50 {
		return percentile(xs, p), p
	}
	return percentile(xs, 100), 100
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

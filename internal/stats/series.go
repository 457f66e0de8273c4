package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is an append-only numeric time series keyed by iteration (or time).
// The experiment harness records utility, share sums and latencies per
// iteration through this type and renders them as figures/CSV.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Append records one (x, y) point. X values are expected to be
// non-decreasing but this is not enforced.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of recorded points.
func (s *Series) Len() int { return len(s.Y) }

// Last returns the final y value, or NaN when empty.
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[len(s.Y)-1]
}

// YRange returns the min and max y over the window [from, to) of indices,
// clamped to the series bounds. It returns NaNs for an empty window.
func (s *Series) YRange(from, to int) (lo, hi float64) {
	from, to = max(from, 0), min(to, len(s.Y))
	if from >= to {
		return math.NaN(), math.NaN()
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s.Y[from:to] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// TailAmplitude measures oscillation as (max-min)/|mean| over the final
// frac portion of the series (frac in (0,1]). A converged series has small
// tail amplitude; a diverging or oscillating one does not.
func (s *Series) TailAmplitude(frac float64) float64 {
	n := len(s.Y)
	if n == 0 || frac <= 0 {
		return math.NaN()
	}
	from := min(n-int(float64(n)*frac), n-1)
	lo, hi := s.YRange(from, n)
	mean := 0.0
	for _, v := range s.Y[from:] {
		mean += v
	}
	mean /= float64(n - from)
	if mean == 0 {
		return hi - lo
	}
	return (hi - lo) / math.Abs(mean)
}

// Downsample returns a copy retaining at most n points, evenly spaced,
// always including the first and last points. It returns the series itself
// when it already fits.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || s.Len() <= n {
		return s
	}
	out := NewSeries(s.Name)
	step := float64(s.Len()-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		out.Append(s.X[idx], s.Y[idx])
	}
	return out
}

// CSV renders the series as two-column CSV with a header line.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x,%s\n", s.Name)
	for i := range s.Y {
		fmt.Fprintf(&b, "%g,%g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// MergeCSV renders several series sharing the same x axis as a multi-column
// CSV. Series shorter than the longest are padded with empty cells.
func MergeCSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("x")
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		wroteX := false
		for _, s := range series {
			if !wroteX {
				if i < s.Len() {
					fmt.Fprintf(&b, "%g", s.X[i])
					wroteX = true
				}
			}
			if wroteX {
				break
			}
		}
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppendAndLast(t *testing.T) {
	s := NewSeries("utility")
	if !math.IsNaN(s.Last()) {
		t.Fatal("empty series Last should be NaN")
	}
	s.Append(0, 1)
	s.Append(1, 2)
	if s.Len() != 2 || s.Last() != 2 {
		t.Fatalf("Len=%d Last=%v, want 2, 2", s.Len(), s.Last())
	}
}

func TestSeriesYRange(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{5, 1, 9, 3} {
		s.Append(float64(i), v)
	}
	lo, hi := s.YRange(0, 4)
	if lo != 1 || hi != 9 {
		t.Errorf("YRange = %v,%v want 1,9", lo, hi)
	}
	lo, hi = s.YRange(2, 4)
	if lo != 3 || hi != 9 {
		t.Errorf("YRange tail = %v,%v want 3,9", lo, hi)
	}
	if lo, _ := s.YRange(4, 4); !math.IsNaN(lo) {
		t.Error("empty window should return NaN")
	}
	// Out-of-bounds windows are clamped.
	lo, hi = s.YRange(-5, 100)
	if lo != 1 || hi != 9 {
		t.Errorf("clamped YRange = %v,%v want 1,9", lo, hi)
	}
}

func TestSeriesTailAmplitude(t *testing.T) {
	flat := NewSeries("flat")
	for i := 0; i < 100; i++ {
		flat.Append(float64(i), 50)
	}
	if a := flat.TailAmplitude(0.2); a > 1e-12 {
		t.Errorf("flat tail amplitude = %v, want 0", a)
	}

	osc := NewSeries("osc")
	for i := 0; i < 100; i++ {
		y := 50.0
		if i%2 == 0 {
			y = 150
		}
		osc.Append(float64(i), y)
	}
	if a := osc.TailAmplitude(0.2); a < 0.5 {
		t.Errorf("oscillating tail amplitude = %v, want >= 0.5", a)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("s")
	for i := 0; i < 1000; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Downsample(11)
	if d.Len() != 11 {
		t.Fatalf("downsampled Len = %d, want 11", d.Len())
	}
	if d.X[0] != 0 || d.X[10] != 999 {
		t.Errorf("endpoints = %v,%v want 0,999", d.X[0], d.X[10])
	}
	// Small series are returned unchanged.
	small := NewSeries("small")
	small.Append(0, 0)
	if small.Downsample(10) != small {
		t.Error("small series should be returned as-is")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("u")
	s.Append(0, 1.5)
	s.Append(1, 2)
	got := s.CSV()
	want := "x,u\n0,1.5\n1,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestMergeCSV(t *testing.T) {
	a := NewSeries("a")
	a.Append(0, 1)
	a.Append(1, 2)
	b := NewSeries("b")
	b.Append(0, 3)
	got := MergeCSV(a, b)
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3: %q", len(lines), got)
	}
	if lines[0] != "x,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Errorf("row 2 = %q", lines[2])
	}
}

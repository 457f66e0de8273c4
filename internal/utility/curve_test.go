package utility

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearCurve(t *testing.T) {
	c := Linear{K: 2, CMs: 45}
	if got := c.Value(0); got != 90 {
		t.Errorf("Value(0) = %v, want 90", got)
	}
	if got := c.Value(45); got != 45 {
		t.Errorf("Value(45) = %v, want 45", got)
	}
	if got := c.Slope(10); got != -1 {
		t.Errorf("Slope = %v, want -1", got)
	}
	if err := ValidateCurve(c, 100); err != nil {
		t.Errorf("ValidateCurve: %v", err)
	}
}

func TestNegLatency(t *testing.T) {
	c := NegLatency{}
	if c.Value(30) != -30 || c.Slope(5) != -1 {
		t.Errorf("NegLatency misbehaves: Value(30)=%v Slope=%v", c.Value(30), c.Slope(5))
	}
	if err := ValidateCurve(c, 1000); err != nil {
		t.Errorf("ValidateCurve: %v", err)
	}
}

func TestQuadratic(t *testing.T) {
	c := Quadratic{A: 100, B: 0.01}
	if got := c.Value(10); math.Abs(got-99) > 1e-12 {
		t.Errorf("Value(10) = %v, want 99", got)
	}
	if got := c.Slope(10); math.Abs(got-(-0.2)) > 1e-12 {
		t.Errorf("Slope(10) = %v, want -0.2", got)
	}
	if err := ValidateCurve(c, 100); err != nil {
		t.Errorf("ValidateCurve: %v", err)
	}
}

func TestExpPenalty(t *testing.T) {
	c := ExpPenalty{A: 10, B: 1, Tau: 20}
	if got := c.Value(0); math.Abs(got-10) > 1e-12 {
		t.Errorf("Value(0) = %v, want 10", got)
	}
	if c.Slope(0) >= 0 || c.Slope(40) >= c.Slope(0) {
		t.Errorf("ExpPenalty slopes not decreasing: %v, %v", c.Slope(0), c.Slope(40))
	}
	if err := ValidateCurve(c, 100); err != nil {
		t.Errorf("ValidateCurve: %v", err)
	}
}

func TestPiecewiseLinear(t *testing.T) {
	// Concave: slopes -1 then -3.
	c, err := NewPiecewiseLinear([]float64{0, 10, 20}, []float64{100, 90, 60})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Value(5); math.Abs(got-95) > 1e-12 {
		t.Errorf("Value(5) = %v, want 95", got)
	}
	if got := c.Value(15); math.Abs(got-75) > 1e-12 {
		t.Errorf("Value(15) = %v, want 75", got)
	}
	if got := c.Slope(5); math.Abs(got-(-1)) > 1e-12 {
		t.Errorf("Slope(5) = %v, want -1", got)
	}
	if got := c.Slope(15); math.Abs(got-(-3)) > 1e-12 {
		t.Errorf("Slope(15) = %v, want -3", got)
	}
	// Extrapolation beyond the last knot uses the final slope.
	if got := c.Value(30); math.Abs(got-30) > 1e-12 {
		t.Errorf("Value(30) = %v, want 30", got)
	}
	if err := ValidateCurve(c, 30); err != nil {
		t.Errorf("ValidateCurve: %v", err)
	}
}

func TestPiecewiseLinearRejectsInvalid(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"length mismatch", []float64{0, 1}, []float64{1}},
		{"too few knots", []float64{0}, []float64{1}},
		{"non-increasing x", []float64{0, 0}, []float64{1, 0}},
		{"increasing y", []float64{0, 1}, []float64{0, 1}},
		{"convex", []float64{0, 1, 2}, []float64{100, 90, 85}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewPiecewiseLinear(c.xs, c.ys); err == nil {
				t.Errorf("NewPiecewiseLinear(%v,%v) should fail", c.xs, c.ys)
			}
		})
	}
}

func TestValidateCurveRejectsConvex(t *testing.T) {
	// e^-x style decay is convex; ValidateCurve must reject it.
	if err := ValidateCurve(convexDecay{}, 10); err == nil {
		t.Error("ValidateCurve should reject a convex curve")
	}
	if err := ValidateCurve(increasing{}, 10); err == nil {
		t.Error("ValidateCurve should reject an increasing curve")
	}
}

// fullScan is ValidateCurve as it was before constant-slope curves got their
// one-sample shortcut: 64 samples whatever the curve.
func fullScan(c Curve, maxX float64) error {
	prevSlope := math.Inf(1)
	for i := 1; i <= 64; i++ {
		s := c.Slope(maxX * float64(i) / 64)
		if s > 1e-9 || s > prevSlope+1e-9 {
			return fmt.Errorf("slope %v after %v at sample %d", s, prevSlope, i)
		}
		prevSlope = s
	}
	return nil
}

// TestValidateCurveConstSlope: Linear and NegLatency are validated from one
// sample with the full scan's verdict; every other curve, valid or not, still
// gets the full scan — the piecewise curve that flattens only past its middle
// knot is caught by no early sample.
func TestValidateCurveConstSlope(t *testing.T) {
	for _, c := range []Curve{Linear{K: 2, CMs: 50}, Linear{K: 0, CMs: 0}, NegLatency{}} {
		if _, ok := ConstSlope(c); !ok {
			t.Errorf("%T not reported as constant-slope", c)
		}
		for _, maxX := range []float64{1e-9, 1, 50, 1e12} {
			if got, want := ValidateCurve(c, maxX), fullScan(c, maxX); (got == nil) != (want == nil) {
				t.Errorf("%#v over (0,%v]: ValidateCurve %v, full scan %v", c, maxX, got, want)
			}
		}
	}
	pw, err := NewPiecewiseLinear([]float64{0, 10, 20}, []float64{30, 25, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c     Curve
		valid bool
	}{
		{Quadratic{A: 100, B: 0.01}, true},
		{Quadratic{A: 100, B: -0.01}, false},
		{ExpPenalty{A: 100, B: 1, Tau: 20}, true},
		{ExpPenalty{A: 100, B: -1, Tau: 20}, false},
		{pw, true},
		{&PiecewiseLinear{xs: []float64{0, 10, 20}, ys: []float64{30, 5, 0}}, false}, // flattens: not concave
		{convexDecay{}, false},
	} {
		if _, ok := ConstSlope(tc.c); ok {
			t.Errorf("%T reported as constant-slope", tc.c)
		}
		got, want := ValidateCurve(tc.c, 20), fullScan(tc.c, 20)
		if (got == nil) != tc.valid || (want == nil) != tc.valid {
			t.Errorf("%#v: ValidateCurve %v, full scan %v, want valid=%v", tc.c, got, want, tc.valid)
		}
	}
}

// TestValidateCurveRejectsNonFiniteSlopes: a zero-value ExpPenalty has a
// NaN slope (−0/0·e^(x/0)) and a zero Tau a −Inf one; a Linear with a NaN K
// has a finite slope but a NaN value, which makes the engine's utility and
// dual bound NaN. None is a curve a task can be solved against, and the
// comparison-based shape tests alone let all of them through.
func TestValidateCurveRejectsNonFiniteSlopes(t *testing.T) {
	for _, c := range []Curve{ExpPenalty{}, ExpPenalty{A: 1, B: 1, Tau: 0}, Quadratic{A: 1, B: math.Inf(1)},
		Linear{K: math.NaN(), CMs: 20}, Quadratic{A: math.Inf(-1), B: 1}} {
		err := ValidateCurve(c, 20)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%#v: ValidateCurve %v, want a non-finite slope refused", c, err)
		}
		if fullScan(c, 20) != nil {
			t.Errorf("%#v: the comparison tests alone refuse it; the case tests nothing", c)
		}
	}
}

type convexDecay struct{}

func (convexDecay) Value(x float64) float64 { return math.Exp(-x) }
func (convexDecay) Slope(x float64) float64 { return -math.Exp(-x) }

type increasing struct{}

func (increasing) Value(x float64) float64 { return x }
func (increasing) Slope(x float64) float64 { return 1 }

// Property: for all valid curves, Value decreases and Slope is non-positive
// on random points.
func TestCurveMonotonicityProperty(t *testing.T) {
	curves := []Curve{
		Linear{K: 2, CMs: 50},
		NegLatency{},
		Quadratic{A: 10, B: 0.5},
		ExpPenalty{A: 5, B: 2, Tau: 7},
	}
	f := func(au, bu uint16) bool {
		a := float64(au) / 100
		b := float64(bu) / 100
		if a > b {
			a, b = b, a
		}
		for _, c := range curves {
			if c.Value(a) < c.Value(b)-1e-9 {
				return false
			}
			if c.Slope(b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubtaskPercentile(t *testing.T) {
	// Single-subtask path: the subtask percentile is the path percentile.
	q, err := SubtaskPercentile(99, 1)
	if err != nil || math.Abs(q-99) > 1e-9 {
		t.Fatalf("SubtaskPercentile(99,1) = %v, %v", q, err)
	}
	// Two subtasks at percentile q compose to q^2/100 (paper Section 2.1):
	// verify round trip for several path lengths.
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, p := range []float64{50, 90, 99, 99.9} {
			q, err := SubtaskPercentile(p, n)
			if err != nil {
				t.Fatal(err)
			}
			if q < p || q > 100 {
				t.Errorf("SubtaskPercentile(%v,%d) = %v outside [p,100]", p, n, q)
			}
			if back := 100 * math.Pow(q/100, float64(n)); math.Abs(back-p) > 1e-9 {
				t.Errorf("round trip p=%v n=%d: got %v", p, n, back)
			}
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := SubtaskPercentile(0, 2); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := SubtaskPercentile(101, 2); err == nil {
		t.Error("p=101 should fail")
	}
	if _, err := SubtaskPercentile(50, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

// Paper example: lat_a^p + lat_b^p at the same number of released jobs
// yields the p²/100 percentile; for p=50 and n=2, per-subtask percentile
// must be sqrt(50)*sqrt(100) ≈ 70.7 to recover an end-to-end median.
func TestPercentilePaperExample(t *testing.T) {
	q, err := SubtaskPercentile(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(50) * math.Sqrt(100)
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("q = %v, want %v", q, want)
	}
}

// Knots hands out copies: writing them leaves the curve as it was.
func TestPiecewiseKnotsAreCopies(t *testing.T) {
	c, err := NewPiecewiseLinear([]float64{0, 50, 100}, []float64{10, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := c.Knots()
	xs[1], ys[1] = 60, 9
	if v := c.Value(50); v != 5 {
		t.Errorf("curve moved through its knots' copies: f(50) = %v, want 5", v)
	}
}

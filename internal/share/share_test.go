package share

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWCETLagShare(t *testing.T) {
	w := WCETLag{ExecMs: 2, LagMs: 1}
	if got := w.Share(10); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Share(10) = %v, want 0.3", got)
	}
	if got := w.LatencyFor(0.3); math.Abs(got-10) > 1e-12 {
		t.Errorf("LatencyFor(0.3) = %v, want 10", got)
	}
	if got := w.Deriv(10); math.Abs(got-(-0.03)) > 1e-12 {
		t.Errorf("Deriv(10) = %v, want -0.03", got)
	}
}

func TestWCETLagErrorCorrection(t *testing.T) {
	// Negative error (model over-predicted) reduces the share needed for
	// the same latency target.
	plain := WCETLag{ExecMs: 5, LagMs: 5}
	corrected := WCETLag{ExecMs: 5, LagMs: 5, ErrMs: -25}
	if corrected.Share(50) >= plain.Share(50) {
		t.Errorf("negative error should reduce share: %v >= %v", corrected.Share(50), plain.Share(50))
	}
	// share(lat) with err: (c+l)/(lat-err) = 10/(50+25) = 0.1333.
	if got := corrected.Share(50); math.Abs(got-10.0/75) > 1e-12 {
		t.Errorf("corrected Share(50) = %v, want %v", got, 10.0/75)
	}
	// Inverse round trip with error applied.
	if got := corrected.LatencyFor(corrected.Share(50)); math.Abs(got-50) > 1e-9 {
		t.Errorf("round trip = %v, want 50", got)
	}
}

func TestWCETLagDegenerateInputs(t *testing.T) {
	w := WCETLag{ExecMs: 1, LagMs: 0}
	if got := w.Share(0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Share(0) = %v, want large finite", got)
	}
	if got := w.LatencyFor(0); !math.IsInf(got, 1) {
		t.Errorf("LatencyFor(0) = %v, want +Inf", got)
	}
	// Positive error larger than the latency: budget floors at epsilon.
	e := WCETLag{ExecMs: 1, ErrMs: 100}
	if got := e.Share(10); got <= 0 || math.IsInf(got, 0) {
		t.Errorf("Share with large positive error = %v, want large finite positive", got)
	}
}

// Properties required by LLA's convergence analysis: share is positive,
// strictly decreasing and strictly convex in latency, and LatencyFor is its
// inverse.
func TestWCETLagConvexityProperty(t *testing.T) {
	f := func(cu, lu, au, bu uint16) bool {
		c := 0.5 + float64(cu)/100
		l := float64(lu) / 100
		a := 1 + float64(au)/10
		b := a + 0.5 + float64(bu)/10
		w := WCETLag{ExecMs: c, LagMs: l}
		sa, sb := w.Share(a), w.Share(b)
		if sa <= 0 || sb <= 0 || sa <= sb {
			return false // positive, strictly decreasing
		}
		if w.Deriv(a) >= 0 || w.Deriv(b) >= 0 {
			return false
		}
		// Convexity: derivative increases (toward zero) with latency.
		if w.Deriv(a) >= w.Deriv(b) {
			return false
		}
		// Inverse round trips.
		if math.Abs(w.LatencyFor(sa)-a) > 1e-6*a {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceValidate(t *testing.T) {
	ok := Resource{ID: "cpu-0", Kind: CPU, Availability: 1, LagMs: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid resource rejected: %v", err)
	}
	cases := []Resource{
		{ID: "", Kind: CPU, Availability: 1},
		{ID: "x", Kind: CPU, Availability: 0},
		{ID: "x", Kind: CPU, Availability: 1.5},
		{ID: "x", Kind: CPU, Availability: 1, LagMs: -1},
		{ID: "x", Kind: Kind(9), Availability: 1},
		{ID: "x", Kind: CPU, Availability: math.NaN()},
		{ID: "x", Kind: CPU, Availability: math.Inf(1)},
		{ID: "x", Kind: CPU, Availability: 1, LagMs: math.NaN()},
		{ID: "x", Kind: CPU, Availability: 1, LagMs: math.Inf(1)},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v) should fail validation", i, r)
		}
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || Link.String() != "link" {
		t.Errorf("Kind strings wrong: %v, %v", CPU, Link)
	}
	if Kind(3).String() != "Kind(3)" {
		t.Errorf("unknown kind string = %v", Kind(3))
	}
}

package price

import (
	"math"
	"testing"
)

// driveDynamics runs a few rounds of a small 3-coordinate problem so the
// solver accumulates non-trivial internal state (ramped sizers, Anderson
// windows, fallback counts).
func driveDynamics(d Dynamics, rounds int) []float64 {
	mu := []float64{0.5, 2, 0}
	avail := []float64{1, 1, 1}
	curv := make([]float64, 3)
	sums := make([]float64, 3)
	cong := make([]bool, 3)
	for r := 0; r < rounds; r++ {
		for j := range mu {
			// A synthetic demand response: over-demand on 0, near balance on
			// 1, idle on 2, with congestion flipping to exercise the adaptive
			// sizers on both branches.
			sums[j] = avail[j] * (1.3 - 0.4*float64(j)) * (1 + 0.1*math.Sin(float64(r+j)))
			cong[j] = sums[j] > avail[j]*1.01
			curv[j] = sums[j] / (2 * math.Max(mu[j], 1e-3))
		}
		d.Step(StepInput{Mu: mu, ShareSums: sums, Avail: avail, Congested: cong, Curvature: curv})
	}
	return mu
}

func testConfig() DynamicsConfig {
	return DynamicsConfig{NewStep: func() StepSizer { return NewAdaptive(0.1) }, BaseGamma: 0.1, PriceScaled: true}
}

// TestDynamicsStateRoundTrip drives each solver, captures it, restores into
// a fresh instance, and verifies both continue bitwise identically.
func TestDynamicsStateRoundTrip(t *testing.T) {
	for _, solver := range Solvers() {
		t.Run(string(solver), func(t *testing.T) {
			orig := NewDynamics(solver, testConfig())
			orig.Reset(3)
			muPrefix := driveDynamics(orig, 7)

			st := CaptureDynamics(orig)
			if st.Solver != solver {
				t.Fatalf("captured solver = %s, want %s", st.Solver, solver)
			}

			fresh := NewDynamics(solver, testConfig())
			fresh.Reset(3)
			if err := RestoreDynamics(fresh, st); err != nil {
				t.Fatalf("RestoreDynamics: %v", err)
			}
			if fresh.Fallbacks() != orig.Fallbacks() {
				t.Fatalf("restored fallbacks = %d, want %d", fresh.Fallbacks(), orig.Fallbacks())
			}

			// Continue both from the same price vector: every subsequent
			// round must agree bitwise.
			muA := append([]float64(nil), muPrefix...)
			muB := append([]float64(nil), muPrefix...)
			avail := []float64{1, 1, 1}
			curv := make([]float64, 3)
			sums := make([]float64, 3)
			cong := make([]bool, 3)
			for r := 0; r < 10; r++ {
				for j := range sums {
					sums[j] = avail[j] * (1.2 - 0.3*float64(j)) * (1 + 0.1*math.Cos(float64(r+j)))
					cong[j] = sums[j] > avail[j]*1.01
					curv[j] = sums[j] / (2 * math.Max(muA[j], 1e-3))
				}
				orig.Step(StepInput{Mu: muA, ShareSums: sums, Avail: avail, Congested: cong, Curvature: curv})
				fresh.Step(StepInput{Mu: muB, ShareSums: sums, Avail: avail, Congested: cong, Curvature: curv})
				for j := range muA {
					if math.Float64bits(muA[j]) != math.Float64bits(muB[j]) {
						t.Fatalf("round %d coordinate %d: restored %v != original %v", r, j, muB[j], muA[j])
					}
				}
			}
			if fresh.Fallbacks() != orig.Fallbacks() {
				t.Fatalf("post-run fallbacks diverged: restored %d, original %d", fresh.Fallbacks(), orig.Fallbacks())
			}
		})
	}
}

// TestRestoreDynamicsRejectsMismatch checks solver and shape mismatches are
// errors rather than silent partial loads.
func TestRestoreDynamicsRejectsMismatch(t *testing.T) {
	grad := NewDynamics(SolverGradient, testConfig())
	grad.Reset(3)
	st := CaptureDynamics(grad)

	newton := NewDynamics(SolverNewton, testConfig())
	newton.Reset(3)
	if err := RestoreDynamics(newton, st); err == nil {
		t.Fatal("restoring gradient state into newton succeeded, want error")
	}

	small := NewDynamics(SolverGradient, testConfig())
	small.Reset(2)
	if err := RestoreDynamics(small, st); err == nil {
		t.Fatal("restoring 3-coordinate state into 2-coordinate solver succeeded, want error")
	}

	if err := RestoreDynamics(nil, st); err == nil {
		t.Fatal("restoring into nil Dynamics succeeded, want error")
	}
}

// TestRestoreFixedSizerMismatch: a Fixed sizer has no setter; restoring its
// own value succeeds, any other value errors.
func TestRestoreFixedSizerMismatch(t *testing.T) {
	cfg := DynamicsConfig{NewStep: func() StepSizer { return &Fixed{Value: 0.25} }, BaseGamma: 0.25}
	d := NewDynamics(SolverGradient, cfg)
	d.Reset(2)
	st := CaptureDynamics(d)

	fresh := NewDynamics(SolverGradient, cfg)
	fresh.Reset(2)
	if err := RestoreDynamics(fresh, st); err != nil {
		t.Fatalf("restoring matching fixed gammas: %v", err)
	}

	st.Gammas[1] = 0.5
	if err := RestoreDynamics(fresh, st); err == nil {
		t.Fatal("restoring mismatched fixed gamma succeeded, want error")
	}
}

// TestAdaptiveSetGamma: SetGamma must place the sizer exactly where a
// congestion ramp left it.
func TestAdaptiveSetGamma(t *testing.T) {
	a := NewAdaptive(0.1)
	a.Observe(true)
	a.Observe(true)
	want := a.Gamma()

	b := NewAdaptive(0.1)
	b.SetGamma(want)
	if b.Gamma() != want {
		t.Fatalf("SetGamma: got %v, want %v", b.Gamma(), want)
	}
	// Both must evolve identically afterwards.
	a.Observe(true)
	b.Observe(true)
	if a.Gamma() != b.Gamma() {
		t.Fatalf("post-set Observe diverged: %v vs %v", b.Gamma(), a.Gamma())
	}
}

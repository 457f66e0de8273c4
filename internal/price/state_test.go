package price

import (
	"encoding/binary"
	"math"
	"testing"

	"lla/internal/byteio"
)

// stateOf writes d's checkpoint part.
func stateOf(d *Dynamics) []byte {
	var w byteio.Enc
	d.AppendState(&w)
	return w.B
}

// readState reads a checkpoint part into d, which must
// consume it exactly.
func readState(d *Dynamics, b []byte) error {
	r := byteio.Dec{Buf: b}
	d.ReadState(&r)
	return r.Done()
}

// driveDynamics runs a few rounds of a small 3-coordinate problem so the
// solver accumulates non-trivial internal state (ramped step sizes, Newton's
// safeguard, fallback counts).
func driveDynamics(d *Dynamics, rounds int) []float64 {
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

// testDyn builds the named solver with adaptive steps from base 0.1, Reset
// for n coordinates.
func testDyn(s Solver, n int) *Dynamics {
	d := NewDynamics(s, 0.1, true)
	d.Reset(n)
	return d
}

// TestDynamicsStateRoundTrip drives each solver, captures it, restores into
// a fresh instance, and verifies both continue bitwise identically.
func TestDynamicsStateRoundTrip(t *testing.T) {
	for _, solver := range Solvers() {
		t.Run(string(solver), func(t *testing.T) {
			orig := testDyn(solver, 3)
			muPrefix := driveDynamics(orig, 7)

			fresh := testDyn(solver, 3)
			if err := readState(fresh, stateOf(orig)); err != nil {
				t.Fatalf("ReadState: %v", err)
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
	st := stateOf(testDyn(SolverGradient, 3))
	if err := readState(testDyn(SolverNewton, 3), st); err == nil {
		t.Fatal("restoring gradient state into newton succeeded, want error")
	}
	if err := readState(testDyn(SolverGradient, 2), st); err == nil {
		t.Fatal("restoring 3-coordinate state into 2-coordinate solver succeeded, want error")
	}

	// A Newton part whose halvings hold two bytes instead of three: the
	// halvings start behind the solver name, the step sizes and the
	// fallback count.
	newton := stateOf(testDyn(SolverNewton, 3))
	at := 4 + len(SolverNewton) + 4 + 3*8 + 8
	if n := binary.LittleEndian.Uint32(newton[at:]); n != 3 {
		t.Fatalf("halvings length prefix reads %d, want 3", n)
	}
	short := binary.LittleEndian.AppendUint32(append([]byte(nil), newton[:at]...), 2)
	short = append(append(short, newton[at+4:at+6]...), newton[at+7:]...)
	if err := readState(testDyn(SolverNewton, 3), short); err == nil {
		t.Fatal("restoring a short Newton safeguard succeeded, want error")
	}
}

// TestRestoreFixedSizerMismatch: a fixed step policy accepts its own gamma
// on restore and refuses any other value.
func TestRestoreFixedSizerMismatch(t *testing.T) {
	fixed := func() *Dynamics {
		d := NewDynamics(SolverGradient, 0.25, false)
		d.Reset(2)
		return d
	}
	st := stateOf(fixed())
	fresh := fixed()
	if err := readState(fresh, st); err != nil {
		t.Fatalf("restoring matching fixed gammas: %v", err)
	}

	// The second step size sits behind the solver name and the first one.
	at := 4 + len(SolverGradient) + 4 + 8
	if g := math.Float64frombits(binary.LittleEndian.Uint64(st[at:])); g != 0.25 {
		t.Fatalf("second step size reads %v, want 0.25", g)
	}
	binary.LittleEndian.PutUint64(st[at:], math.Float64bits(0.5))
	if err := readState(fixed(), st); err == nil {
		t.Fatal("restoring mismatched fixed gamma succeeded, want error")
	}
}

// TestAdaptiveSetGamma: a restore must place an adaptive step size exactly
// where a congestion ramp left it.
func TestAdaptiveSetGamma(t *testing.T) {
	a := testDyn(SolverGradient, 1)
	observe(a, true)
	observe(a, true)
	want := a.Gamma(0)

	b := testDyn(SolverGradient, 1)
	if err := readState(b, stateOf(a)); err != nil {
		t.Fatal(err)
	}
	if b.Gamma(0) != want {
		t.Fatalf("restored gamma %v, want %v", b.Gamma(0), want)
	}
	// Both must evolve identically afterwards.
	observe(a, true)
	observe(b, true)
	if a.Gamma(0) != b.Gamma(0) {
		t.Fatalf("post-restore ramp diverged: %v vs %v", b.Gamma(0), a.Gamma(0))
	}
}

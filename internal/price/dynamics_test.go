package price

import (
	"math"
	"testing"
)

// testCfg is the dynamics configuration the engine's defaults produce:
// adaptive doubling from base 1, price-scaled steps.
func testCfg() DynamicsConfig {
	return DynamicsConfig{
		NewStep:     func() StepSizer { return NewAdaptive(1) },
		BaseGamma:   1,
		PriceScaled: true,
	}
}

// solver builds the named solver, Reset for n coordinates, as its concrete
// type.
func solver[T Dynamics](s Solver, cfg DynamicsConfig, n int) T {
	d := NewDynamics(s, cfg)
	d.Reset(n)
	return d.(T)
}

// gradSteps builds n reference coordinate steps.
func gradSteps(cfg DynamicsConfig, n int) []GradStep {
	c := coords{cfg: cfg}
	c.Reset(n)
	return c.steps
}

func TestParseSolver(t *testing.T) {
	for _, s := range Solvers() {
		got, err := ParseSolver(string(s))
		if err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v", s, got, err)
		}
	}
	if got, err := ParseSolver(""); err != nil || got != "" {
		t.Errorf("ParseSolver(\"\") = %v, %v; want the unset solver", got, err)
	}
	if _, err := ParseSolver("bogus"); err == nil {
		t.Error("ParseSolver must reject unknown names")
	}
}

func TestSolversReferenceFirst(t *testing.T) {
	all := Solvers()
	if len(all) != 4 || all[0] != SolverGradient {
		t.Fatalf("Solvers() = %v, want the reference gradient first of four", all)
	}
	for _, s := range all {
		d := NewDynamics(s, testCfg())
		if d.Solver() != s {
			t.Errorf("NewDynamics(%q).Solver() = %q", s, d.Solver())
		}
		d.Reset(2)
		if d.Fallbacks() != 0 {
			t.Errorf("%s: fresh dynamics reports %d fallbacks", s, d.Fallbacks())
		}
	}
}

func TestNewDynamicsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDynamics with an unvetted name must panic")
		}
	}()
	NewDynamics("bogus", testCfg())
}

// TestGradientProjectionMatchesGradStep: the vector reference dynamics is the
// per-coordinate GradStep applied coordinate-wise — bit for bit.
func TestGradientProjectionMatchesGradStep(t *testing.T) {
	cfg := testCfg()
	g := solver[*GradientProjection](SolverGradient, cfg, 2)
	manual := gradSteps(cfg, 2)

	mu := []float64{1, 1}
	want := []float64{1, 1}
	sums := [][]float64{{1.4, 0.3}, {1.2, 0.5}, {0.9, 0.8}, {1.6, 0.2}}
	for round, sum := range sums {
		avail := []float64{1, 1}
		cong := []bool{sum[0] > 1, sum[1] > 1}
		g.Step(StepInput{Mu: mu, ShareSums: sum, Avail: avail, Congested: cong})
		for j := range want {
			next, _ := manual[j].Update(want[j], avail[j], sum[j], cong[j])
			want[j] = next
			if mu[j] != want[j] {
				t.Fatalf("round %d coord %d: GradientProjection %v, GradStep %v", round, j, mu[j], want[j])
			}
		}
	}
}

// TestNewtonStepSolvesPowerLaw pins the log-space update: with the
// closed-form curvature curv = sum/(2mu) the elasticity is 1/2, so the step
// solves sum·(mu'/mu)^(-1/2) = B exactly — mu' = mu·(sum/B)².
func TestNewtonStepSolvesPowerLaw(t *testing.T) {
	d := solver[*DiagonalNewton](SolverNewton, testCfg(), 1)
	mu := []float64{1}
	d.Step(StepInput{
		Mu: mu, ShareSums: []float64{2}, Avail: []float64{1},
		Congested: []bool{true}, Curvature: []float64{1}, // sum/(2mu) = 1
	})
	if mu[0] != 4 {
		t.Errorf("log-space Newton moved to %v, want (2/1)^2 = 4", mu[0])
	}
	if d.Fallbacks() != 0 {
		t.Errorf("healthy coordinate fell back %d times", d.Fallbacks())
	}

	// A huge demand gap is confined to the geometric trust region.
	mu[0] = 1
	d.Step(StepInput{
		Mu: mu, ShareSums: []float64{100}, Avail: []float64{1},
		Congested: []bool{true}, Curvature: []float64{50},
	})
	if mu[0] != newtonTrustFactor {
		t.Errorf("trust region let the price move to %v, want %v", mu[0], float64(newtonTrustFactor))
	}
}

// TestNewtonFallsBackOnDegenerateCurvature: zero curvature (every subtask
// bound-active), zero demand, and zero price all take the reference gradient
// step and count a fallback.
func TestNewtonFallsBackOnDegenerateCurvature(t *testing.T) {
	cfg := testCfg()
	d := solver[*DiagonalNewton](SolverNewton, cfg, 1)
	ref := gradSteps(cfg, 1)

	cases := []struct {
		name          string
		mu, sum, curv float64
		congested     bool
	}{
		{"zero curvature", 2, 1.5, 0, true},
		{"zero demand", 2, 0, 0.1, false},
		{"zero price", 0, 1.5, 0.2, true},
	}
	for i, tc := range cases {
		mu := []float64{tc.mu}
		d.Step(StepInput{
			Mu: mu, ShareSums: []float64{tc.sum}, Avail: []float64{1},
			Congested: []bool{tc.congested}, Curvature: []float64{tc.curv},
		})
		want, _ := ref[0].Update(tc.mu, 1, tc.sum, tc.congested)
		if mu[0] != want {
			t.Errorf("%s: fell back to %v, reference step gives %v", tc.name, mu[0], want)
		}
		if got := d.Fallbacks(); got != uint64(i+1) {
			t.Errorf("%s: Fallbacks() = %d, want %d", tc.name, got, i+1)
		}
	}
}

// TestAndersonForcedFallback drives the safeguard on purpose: an adversarial
// demand signal that flips between heavy congestion and deep slack makes the
// residual grow after accepted extrapolations, so the window must be dropped
// (Fallbacks advances) while the price stays inside [0, MaxPrice] throughout.
func TestAndersonForcedFallback(t *testing.T) {
	a := solver[*Anderson](SolverAnderson, testCfg(), 1)
	mu := []float64{1}
	for round := 0; round < 60; round++ {
		sum := 0.05
		if round%2 == 0 {
			sum = 8
		}
		a.Step(StepInput{
			Mu: mu, ShareSums: []float64{sum}, Avail: []float64{1},
			Congested: []bool{sum > 1},
		})
		if math.IsNaN(mu[0]) || mu[0] < 0 || mu[0] > MaxPrice {
			t.Fatalf("round %d: safeguarded price left the domain: %v", round, mu[0])
		}
	}
	if a.Fallbacks() == 0 {
		t.Error("adversarial demand did not trigger the Anderson safeguard")
	}
}

// TestAndersonInvalidateClearsWindow: after Invalidate the next round must
// behave like a bootstrap — the window holds fewer than two pairs, so the
// coordinate takes exactly the reference gradient step.
func TestAndersonInvalidateClearsWindow(t *testing.T) {
	cfg := testCfg()
	a := solver[*Anderson](SolverAnderson, cfg, 1)
	mu := []float64{1}
	in := func(sum float64) StepInput {
		return StepInput{Mu: mu, ShareSums: []float64{sum}, Avail: []float64{1}, Congested: []bool{sum > 1}}
	}
	for _, sum := range []float64{1.5, 1.4, 1.3, 1.2} {
		a.Step(in(sum))
	}
	a.Invalidate()
	for j, n := range a.cnt {
		if n != 0 {
			t.Fatalf("coordinate %d still holds %d window pairs after Invalidate", j, n)
		}
	}
	// Mirror the post-invalidate round with a reference step whose sizer
	// carries the same state the solver's sizer had going in.
	restored := NewAdaptive(1)
	restored.cur = a.steps[0].Step.Gamma()
	ref := GradStep{Step: restored, BaseGamma: cfg.BaseGamma, PriceScaled: cfg.PriceScaled}
	before := mu[0]
	a.Step(in(1.25))
	want, _ := ref.Update(before, 1, 1.25, true)
	if mu[0] != want {
		t.Errorf("post-Invalidate step moved to %v, reference gives %v", mu[0], want)
	}
}

// TestPriceDiscoveryUpdate pins the multiplicative dynamics: ratio updates
// clamped per round, sub-floor uncongested prices snap to exactly zero, and
// zero prices bootstrap through the reference gradient step.
func TestPriceDiscoveryUpdate(t *testing.T) {
	p := solver[*PriceDiscovery](SolverPriceDiscovery, testCfg(), 1)

	mu := []float64{1}
	p.Step(StepInput{Mu: mu, ShareSums: []float64{8}, Avail: []float64{1}, Congested: []bool{true}})
	if mu[0] != pdRatioMax {
		t.Errorf("over-demand update = %v, want the ratio clamp %v", mu[0], float64(pdRatioMax))
	}

	mu[0] = 4e-10
	p.Step(StepInput{Mu: mu, ShareSums: []float64{0.2}, Avail: []float64{1}, Congested: []bool{false}})
	if mu[0] != 0 {
		t.Errorf("sub-floor uncongested price = %v, want exact 0", mu[0])
	}

	// A zero price with returning demand must rise again (the multiplicative
	// update alone could not lift it).
	p.Step(StepInput{Mu: mu, ShareSums: []float64{1.5}, Avail: []float64{1}, Congested: []bool{true}})
	if mu[0] <= 0 {
		t.Errorf("zero price with excess demand stayed at %v, want > 0", mu[0])
	}
}

// Satellite: Adaptive step-sizer edge cases.

// TestAdaptiveResetAfterSaturation: a long congestion streak saturates the
// doubling at the cap; Reset must restore the base exactly.
func TestAdaptiveResetAfterSaturation(t *testing.T) {
	a := NewAdaptive(1)
	for i := 0; i < 30; i++ {
		a.Observe(true)
	}
	if a.Gamma() != DefaultAdaptiveMax {
		t.Fatalf("saturated gamma = %v, want %v", a.Gamma(), float64(DefaultAdaptiveMax))
	}
	a.Reset()
	if a.Gamma() != 1 {
		t.Errorf("post-Reset gamma = %v, want base 1", a.Gamma())
	}
}

// TestAdaptiveAlternatingObserve: congestion flapping must not ratchet the
// step size — every uncongested observation reverts to base, so the step
// never exceeds 2x base.
func TestAdaptiveAlternatingObserve(t *testing.T) {
	a := NewAdaptive(0.5)
	for i := 0; i < 40; i++ {
		congested := i%2 == 0
		a.Observe(congested)
		if congested {
			if a.Gamma() != 1 {
				t.Fatalf("step %d: congested gamma = %v, want 2x base = 1", i, a.Gamma())
			}
		} else if a.Gamma() != 0.5 {
			t.Fatalf("step %d: uncongested gamma = %v, want base 0.5", i, a.Gamma())
		}
	}
}

// TestAdaptiveDoublingCapNearMax: a cap that is not a power-of-two multiple
// of the base is still respected exactly — the ramp clamps at Max rather
// than stepping over it, and stays pinned there while congestion persists.
func TestAdaptiveDoublingCapNearMax(t *testing.T) {
	a := NewAdaptive(1)
	a.Max = 3
	for i := 0; i < 10; i++ {
		a.Observe(true)
		if a.Gamma() > 3 {
			t.Fatalf("observation %d stepped over the cap: %v", i, a.Gamma())
		}
	}
	if a.Gamma() != 3 {
		t.Errorf("saturated gamma = %v, want the exact cap 3", a.Gamma())
	}
	a.Observe(false)
	if a.Gamma() != 1 {
		t.Errorf("uncongested reversion = %v, want base 1", a.Gamma())
	}
}

// TestNewtonSafeguardDampsSignFlips pins the safeguard against the period-2
// cycle: a coordinate whose excess Σshare − B flips sign every step halves
// its log-step exponent each time (the move shrinks geometrically instead of
// repeating), a same-sign step doubles it back, and Invalidate clears it.
func TestNewtonSafeguardDampsSignFlips(t *testing.T) {
	d := solver[*DiagonalNewton](SolverNewton, testCfg(), 1)
	// sum/B alternates 4 ↔ 1/4 at elasticity 1/2: the undamped log step is
	// (sum/B)^2, a 16x move each way, every step.
	moves := []float64{}
	for i, sum := range []float64{4, 0.25, 4, 0.25, 4} {
		next, moved := d.StepAt(0, 1, sum, 1, sum/2, sum > 1)
		if !moved {
			t.Fatalf("step %d: reported no move", i)
		}
		moves = append(moves, math.Abs(math.Log2(next)))
	}
	want := []float64{4, 2, 1, 0.5, 0.25}
	for i := range want {
		if math.Abs(moves[i]-want[i]) > 1e-12 {
			t.Fatalf("log2 moves %v, want %v", moves, want)
		}
	}
	// A same-sign step doubles the exponent back: 2^-4 → 2^-3.
	if next, _ := d.StepAt(0, 1, 4, 1, 2, true); math.Abs(math.Log2(next)-0.5) > 1e-12 {
		t.Errorf("same-sign step moved log2 %v, want 0.5", math.Log2(next))
	}
	d.Invalidate()
	if next, _ := d.StepAt(0, 1, 0.25, 1, 0.125, false); math.Log2(next) != -4 {
		t.Errorf("post-Invalidate step moved log2 %v, want the undamped -4", math.Log2(next))
	}
	// At a bitwise fixed point nothing moves, so a runtime may skip the
	// coordinate.
	if next, moved := d.StepAt(0, 2, 1, 1, 0.25, false); moved || next != 2 {
		t.Errorf("fixed point moved to %v (moved %v)", next, moved)
	}
}

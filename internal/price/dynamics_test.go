package price

import (
	"bytes"
	"math"
	"testing"

	"lla/internal/byteio"
)

// newDyn builds the named solver under the engine's default step policy
// (adaptive doubling from base 1, price-scaled steps), Reset for n
// coordinates.
func newDyn(s Solver, n int) *Dynamics {
	d := NewDynamics(s, 1, true)
	d.Reset(n)
	return d
}

// refGradient is the reference dynamics written out on one coordinate: ramp
// the step size, clamp it to max(base, 2·mu/B) after flooring it at mu/2,
// and apply Equation 8. It shares nothing with Dynamics but Ramp and
// UpdateResource.
func refGradient(gamma *float64, base, mu, avail, sum float64, cong bool) float64 {
	*gamma = Ramp(*gamma, base, cong)
	g := *gamma
	if g < mu/2 {
		g = mu / 2
	}
	g = math.Min(g, math.Max(base, 2*mu/avail))
	return UpdateResource(mu, g, avail, sum)
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
	for _, bad := range []string{"bogus", "anderson", "price-discovery"} {
		if _, err := ParseSolver(bad); err == nil {
			t.Errorf("ParseSolver(%q) must reject an unknown name", bad)
		}
	}
}

func TestSolversReferenceFirst(t *testing.T) {
	all := Solvers()
	if len(all) != 2 || all[0] != SolverGradient || all[1] != SolverNewton {
		t.Fatalf("Solvers() = %v, want [gradient newton]", all)
	}
	for _, s := range all {
		d := newDyn(s, 2)
		if d.Solver() != s {
			t.Errorf("NewDynamics(%q).Solver() = %q", s, d.Solver())
		}
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
	NewDynamics("bogus", 1, true)
}

// TestGradientMatchesReference: the gradient dynamics is the reference
// update applied coordinate-wise — bit for bit.
func TestGradientMatchesReference(t *testing.T) {
	g := newDyn(SolverGradient, 2)
	mu := []float64{1, 1}
	want := []float64{1, 1}
	gammas := []float64{1, 1}
	sums := [][]float64{{1.4, 0.3}, {1.2, 0.5}, {0.9, 0.8}, {1.6, 0.2}}
	for round, sum := range sums {
		avail := []float64{1, 1}
		cong := []bool{sum[0] > 1, sum[1] > 1}
		g.Step(StepInput{Mu: mu, ShareSums: sum, Avail: avail, Congested: cong})
		for j := range want {
			want[j] = refGradient(&gammas[j], 1, want[j], avail[j], sum[j], cong[j])
			if mu[j] != want[j] || g.Gamma(j) != gammas[j] {
				t.Fatalf("round %d coord %d: gradient %v (gamma %v), reference %v (gamma %v)",
					round, j, mu[j], g.Gamma(j), want[j], gammas[j])
			}
		}
	}
}

// TestNewtonStepSolvesPowerLaw pins the log-space update: with the
// closed-form curvature curv = sum/(2mu) the elasticity is 1/2, so the step
// solves sum·(mu'/mu)^(-1/2) = B exactly — mu' = mu·(sum/B)².
func TestNewtonStepSolvesPowerLaw(t *testing.T) {
	d := newDyn(SolverNewton, 1)
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
	d := newDyn(SolverNewton, 1)
	gamma := 1.0

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
		want := refGradient(&gamma, 1, tc.mu, 1, tc.sum, tc.congested)
		if mu[0] != want {
			t.Errorf("%s: fell back to %v, reference step gives %v", tc.name, mu[0], want)
		}
		if got := d.Fallbacks(); got != uint64(i+1) {
			t.Errorf("%s: Fallbacks() = %d, want %d", tc.name, got, i+1)
		}
	}
}

// Satellite: adaptive step-size edge cases, observed through a gradient
// coordinate held at its fixed point (demand equals capacity, so only the
// congestion flag moves the step size).

// observe feeds coordinate 0 of d one round of congestion state.
func observe(d *Dynamics, congested bool) { d.StepAt(0, 1, 1, 1, 0, congested) }

// TestAdaptiveResetAfterSaturation: a long congestion streak saturates the
// doubling at the cap; Reset must restore the base exactly.
func TestAdaptiveResetAfterSaturation(t *testing.T) {
	a := newDyn(SolverGradient, 1)
	for i := 0; i < 30; i++ {
		observe(a, true)
	}
	if a.Gamma(0) != DefaultAdaptiveMax {
		t.Fatalf("saturated gamma = %v, want %v", a.Gamma(0), float64(DefaultAdaptiveMax))
	}
	a.Reset(1)
	if a.Gamma(0) != 1 {
		t.Errorf("post-Reset gamma = %v, want base 1", a.Gamma(0))
	}
}

// TestAdaptiveAlternatingObserve: congestion flapping must not ratchet the
// step size — every uncongested observation reverts to base, so the step
// never exceeds 2x base.
func TestAdaptiveAlternatingObserve(t *testing.T) {
	a := NewDynamics(SolverGradient, 0.5, true)
	a.Reset(1)
	for i := 0; i < 40; i++ {
		congested := i%2 == 0
		observe(a, congested)
		if congested {
			if a.Gamma(0) != 1 {
				t.Fatalf("step %d: congested gamma = %v, want 2x base = 1", i, a.Gamma(0))
			}
		} else if a.Gamma(0) != 0.5 {
			t.Fatalf("step %d: uncongested gamma = %v, want base 0.5", i, a.Gamma(0))
		}
	}
}

// TestAdaptiveDoublingCapNearMax: a cap that is not a power-of-two multiple
// of the base is still respected exactly — the ramp from base 3 clamps at
// DefaultAdaptiveMax rather than stepping over it (768 → 1536), and stays
// pinned there while congestion persists.
func TestAdaptiveDoublingCapNearMax(t *testing.T) {
	a := NewDynamics(SolverGradient, 3, true)
	a.Reset(1)
	for i := 0; i < 20; i++ {
		observe(a, true)
		if a.Gamma(0) > DefaultAdaptiveMax {
			t.Fatalf("observation %d stepped over the cap: %v", i, a.Gamma(0))
		}
	}
	if a.Gamma(0) != DefaultAdaptiveMax {
		t.Errorf("saturated gamma = %v, want the exact cap %v", a.Gamma(0), DefaultAdaptiveMax)
	}
	observe(a, false)
	if a.Gamma(0) != 3 {
		t.Errorf("uncongested reversion = %v, want base 3", a.Gamma(0))
	}
}

// TestNewtonSafeguardDampsSignFlips pins the safeguard against the period-2
// cycle: a coordinate whose excess Σshare − B flips sign every step halves
// its log-step exponent each time (the move shrinks geometrically instead of
// repeating), a same-sign step doubles it back, and Invalidate clears it.
func TestNewtonSafeguardDampsSignFlips(t *testing.T) {
	d := newDyn(SolverNewton, 1)
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

// TestNewtonRoundingBand: an excess within roundingBand of capacity is the
// demand reduction's rounding, so Newton treats it as zero — the price stays
// bitwise, the last sign stands, the halvings decay, and once they reach 0
// the step reports no move. Just outside the band the price moves, and the
// degenerate coordinates still take the reference gradient step.
func TestNewtonRoundingBand(t *testing.T) {
	const avail = 3.0
	in := avail * (1 + roundingBand) // the band's edge, above capacity
	out := avail * (1 + 2*roundingBand)
	for _, tc := range []struct {
		name                    string
		mu, sum, curv           float64
		sign, halvings          uint8 // safeguard state before the step
		wantSign, wantHalvings  uint8
		wantMoved, wantFallback bool
		wantMu                  float64 // 0: the reference gradient step
	}{
		{"in band above", 2, in, 1, 2, 0, 2, 0, false, false, 2},
		{"in band below", 2, avail * (1 - roundingBand), 1, 1, 0, 1, 0, false, false, 2},
		{"in band, halvings decaying", 2, in, 1, 1, 3, 1, 2, true, false, 2},
		{"in band, first step", 2, in, 1, 0, 0, 0, 0, false, false, 2},
		{"outside the band", 2, out, 1, 1, 0, 1, 0, true, false, 2 * math.Pow(out/avail, 1/(2*1/out))},
		{"zero price", 0, avail + 1, 0.2, 1, 0, 1, 0, true, true, 0},
		{"zero demand", 2, 0, 0.1, 2, 0, 2, 0, true, true, 0},
		{"low elasticity", 2, avail + 1, 0.01, 1, 0, 1, 0, true, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDyn(SolverNewton, 1)
			d.sign[0], d.halvings[0] = tc.sign, tc.halvings
			want, gamma := tc.wantMu, 1.0
			if tc.wantFallback {
				want = refGradient(&gamma, 1, tc.mu, avail, tc.sum, false)
			}
			next, moved := d.StepAt(0, tc.mu, tc.sum, avail, tc.curv, false)
			if math.Float64bits(next) != math.Float64bits(want) || moved != tc.wantMoved {
				t.Errorf("StepAt = %v (moved %v), want %v (moved %v)", next, moved, want, tc.wantMoved)
			}
			if d.sign[0] != tc.wantSign || d.halvings[0] != tc.wantHalvings {
				t.Errorf("safeguard sign %d halvings %d, want %d %d", d.sign[0], d.halvings[0], tc.wantSign, tc.wantHalvings)
			}
			if got := d.Fallbacks() == 1; got != tc.wantFallback {
				t.Errorf("fell back %d times, want fallback %v", d.Fallbacks(), tc.wantFallback)
			}
		})
	}
}

// TestNewtonAtCapacityMatchesPowPath: a demand exactly at capacity steps by
// Pow(1, y) == 1, which StepAt does not compute. Its price and moved flag
// must be the Pow path's bit for bit — the same trust-region and MaxPrice
// clamps included, so a price above MaxPrice is still clamped down.
func TestNewtonAtCapacityMatchesPowPath(t *testing.T) {
	const avail = 0.75
	for _, tc := range []struct {
		name           string
		mu, curv       float64
		sign, halvings uint8
		guard          bool // the safeguard state moves
	}{
		{"fixed point", 2, 1, 1, 0, false},
		{"first step", 2, 1, 0, 0, false},
		{"halvings decaying", 2, 1, 2, 5, true},
		{"tiny price", 1e-300, 1e300, 1, 0, false},
		{"at MaxPrice", MaxPrice, 1, 2, 0, false},
		{"above MaxPrice", 10 * MaxPrice, 1, 2, 0, false},
		{"above MaxPrice, damped", 10 * MaxPrice, 1, 1, 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDyn(SolverNewton, 1)
			d.sign[0], d.halvings[0] = tc.sign, tc.halvings
			h := max(int(tc.halvings)-1, 0)
			want := tc.mu * math.Pow(avail/avail, math.Ldexp(1, -h)/(tc.mu*tc.curv/avail))
			want = math.Min(math.Max(want, tc.mu/newtonTrustFactor), tc.mu*newtonTrustFactor)
			want = math.Min(want, MaxPrice)
			next, moved := d.StepAt(0, tc.mu, avail, avail, tc.curv, false)
			if math.Float64bits(next) != math.Float64bits(want) || moved != (tc.guard || want != tc.mu) {
				t.Errorf("StepAt = %v (moved %v), Pow path %v (moved %v)", next, moved, want, tc.guard || want != tc.mu)
			}
			if d.Fallbacks() != 0 || int(d.halvings[0]) != h || d.sign[0] != tc.sign {
				t.Errorf("fallbacks %d, safeguard sign %d halvings %d, want 0, %d, %d", d.Fallbacks(), d.sign[0], d.halvings[0], tc.sign, h)
			}
		})
	}
}

// TestRepriceAdvancesNoState: Reprice returns the price StepAt would, on the
// Newton step and on its gradient fallback, and leaves the coordinate's step
// size, safeguard and fallback count as it found them.
func TestRepriceAdvancesNoState(t *testing.T) {
	for _, tc := range []struct {
		name          string
		mu, sum, curv float64
		fallback      bool
	}{
		{"newton", 1, 2, 1, false},
		{"fallback", 1, 2, 0, true}, // no interior response, congested: the ramped gradient step
	} {
		d, ref := newDyn(SolverNewton, 1), newDyn(SolverNewton, 1)
		for _, x := range []*Dynamics{d, ref} {
			x.StepAt(0, 1, 0.5, 1, 0.25, false) // history: a step below capacity
		}
		var before, after byteio.Enc
		d.AppendState(&before)
		got := d.Reprice(0, tc.mu, tc.sum, 1, tc.curv, true)
		d.AppendState(&after)
		want, _ := ref.StepAt(0, tc.mu, tc.sum, 1, tc.curv, true)
		if got != want {
			t.Errorf("%s: Reprice = %v, StepAt = %v", tc.name, got, want)
		}
		if !bytes.Equal(before.B, after.B) {
			t.Errorf("%s: Reprice advanced the coordinate's state", tc.name)
		}
		if fell := ref.Fallbacks() > 0; fell != tc.fallback {
			t.Errorf("%s: StepAt fell back %v, want %v", tc.name, fell, tc.fallback)
		}
	}
}

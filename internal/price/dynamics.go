package price

import (
	"fmt"
	"math"
)

// Price dynamics (DESIGN.md §12). The paper's dual update is scalar gradient
// projection with the Section 5.2 congestion-doubling step. Every iteration
// of it costs a full broadcast round in the distributed runtime, so
// rounds-to-converge is the dominant term in end-to-end convergence latency;
// diagonal Newton scales the same update by the local demand response and
// needs a tenth of the rounds. Dynamics runs either solver over a vector of
// resource prices, given the measured demand, the availability and the
// curvature.
//
// The update is coordinate-separable: coordinate j's next price depends only
// on coordinate j's inputs and history. That is a hard requirement, not a
// convenience — the synchronous engine drives one n-resource Dynamics
// coordinate by coordinate (skipping the clean ones) while each distributed
// resource node drives its own 1-resource instance, and separability is what
// makes the two bitwise identical.

// Solver identifies a price-dynamics update.
type Solver string

const (
	// SolverGradient is the paper's gradient projection with the Section 5.2
	// congestion-doubling heuristic — the reference dynamics.
	SolverGradient Solver = "gradient"
	// SolverNewton is diagonal Newton: each coordinate's step is scaled by
	// the closed-form controller response derivative (the local diagonal of
	// the dual Hessian). It is the default (core.Config.WithDefaults).
	SolverNewton Solver = "newton"
)

// Solvers lists every implemented solver, reference first.
func Solvers() []Solver { return []Solver{SolverGradient, SolverNewton} }

// ParseSolver resolves a flag/config string to a Solver. The empty string
// stays empty: an unset solver, which each runtime resolves to its own
// default.
func ParseSolver(s string) (Solver, error) {
	switch Solver(s) {
	case SolverGradient, SolverNewton, "":
		return Solver(s), nil
	}
	return "", fmt.Errorf("price: unknown solver %q (have gradient, newton)", s)
}

// String implements fmt.Stringer for flags and telemetry.
func (s Solver) String() string { return string(s) }

// StepInput is one round of per-resource observations handed to a Dynamics.
// All slices are indexed by resource coordinate and have equal length; Mu is
// updated in place.
type StepInput struct {
	// Mu is the price vector, advanced in place.
	Mu []float64
	// ShareSums[j] is the measured demand Σ_s share_s on coordinate j.
	ShareSums []float64
	// Avail[j] is the capacity B_j.
	Avail []float64
	// Congested[j] reports demand beyond the ramping margin; it drives the
	// adaptive step size exactly as in the reference dynamics.
	Congested []bool
	// Curvature[j] is the local demand response −∂(Σ share)/∂μ_j ≥ 0,
	// summed over interior subtasks. Only Newton reads it; gradient callers
	// may leave it nil.
	Curvature []float64
}

// curvatureFloor guards the Newton division: below it the interior demand
// response is effectively zero (every subtask bound-active) and the
// reference gradient step takes over.
const curvatureFloor = 1e-12

// newtonTrustFactor bounds one diagonal-Newton move to a geometric trust
// region [mu/factor, mu*factor]: coordinates far from their root still move
// geometrically fast, but a Jacobi-style simultaneous sweep over coupled
// coordinates cannot overshoot into oscillation.
const newtonTrustFactor = 16

// newtonElasticityFloor bounds the measured demand elasticity away from
// zero: p below it would exponentiate measurement noise into astronomical
// price moves, so such coordinates take the reference step instead.
const newtonElasticityFloor = 0.05

// roundingBand is the relative excess |Σshare − B|/B that Newton treats as
// zero. Summing n non-negative shares left to right errs by at most
// (n−1)·2⁻⁵³·Σshare, so a binding resource's demand lands a few ulps either
// side of B with a sign that flips from step to step; stepping on that noise
// moves the price by as many ulps and a certified point never repeats
// bitwise, so no controller's inputs ever stay unmoved. 64 ulps (7.1e-15, eight
// orders below the certificate's tolerance) covers the reductions in use; on
// engine-online's instance the share of solves skipped after the first
// passing certificate is 19 / 72 / 96 / 98 / 98 % at 1 / 2 / 4 / 16 / 64 ulps.
const roundingBand = 64 * 0x1p-53

// newtonMaxHalvings caps the safeguard's damping at a 2^-30 step: small
// enough to break any cycle, large enough that doubling back recovers.
const newtonMaxHalvings = 30

// Dynamics advances resource prices once per round, coordinate by
// coordinate. Every coordinate carries the reference gradient step size;
// under Newton it also carries the safeguard's damping.
//
// The gradient update is the paper's dual step (Equation 8) with the Section
// 5.2 adaptive heuristic and a local stability clamp. Demand scales as
// 1/sqrt(mu), so the iteration contracts only for gamma < 4·mu/B: clamping at
// half that (floored at the base step so a zero price can rise) lets the ramp
// run without destabilizing the equilibrium. In adaptive mode the step is
// also floored at mu/2, so a distant price moves in O(1) iterations.
//
// Diagonal Newton steps in log-price coordinates. Each interior subtask
// responds as ∂share/∂mu = −share/(2·mu), so the measured demand has local
// elasticity p = mu·curv/Σshare (1/2 when fully interior), and the step
//
//	mu' = mu · (Σshare/B)^(1/p)
//
// solves the local power-law model Σshare·(mu'/mu)^(−p) = B exactly, where a
// linear Newton step closes only ~3× of a gap per round. A zero price, zero
// demand or no usable interior response falls back to the gradient step, bit
// for bit. An excess within roundingBand counts as zero, so a certified point
// stops moving bitwise. A Jacobi sweep over coupled coordinates can overshoot
// every root at once into a period-2 cycle (the base workload under the
// weighted-sum utility does): the safeguard halves a coordinate's log-step
// exponent when its excess Σshare − B changes sign, and doubles it back on
// every same-sign step.
//
// Step and StepAt do not allocate once Reset has sized the coordinates.
type Dynamics struct {
	// newton selects the diagonal-Newton step; otherwise every coordinate
	// takes the gradient step.
	newton bool
	// base is the step policy's gamma: the start and post-congestion step,
	// and the stability clamp's floor. With adaptive set, gamma[j] ramps by
	// Ramp while coordinate j is congested; otherwise it stays at base.
	base     float64
	adaptive bool

	// gamma[j] is coordinate j's current gradient step size.
	gamma []float64
	// halvings[j] is coordinate j's Newton damping: its log step is scaled by
	// 2^-halvings[j]. sign[j] is the sign of its last nonzero excess
	// Σshare − B: 1 above capacity, 2 below, 0 before any. Both are nil
	// under the gradient.
	halvings, sign []uint8
	// fallbacks counts Newton steps that fell back to the gradient step.
	fallbacks uint64
}

// NewDynamics builds the named solver over the step policy (base gamma,
// adaptive doubling on or off).
// Unknown solvers panic: configurations are vetted through ParseSolver, so
// reaching here with a bad name is a programming error.
func NewDynamics(s Solver, base float64, adaptive bool) *Dynamics {
	if s != SolverGradient && s != SolverNewton {
		panic(fmt.Sprintf("price: unknown solver %q", s))
	}
	return &Dynamics{newton: s == SolverNewton, base: base, adaptive: adaptive}
}

// Solver identifies the update the dynamics runs.
func (d *Dynamics) Solver() Solver {
	if d.newton {
		return SolverNewton
	}
	return SolverGradient
}

// Reset sizes the dynamics for n coordinates at the base step with no
// safeguard history. The fallback count carries on.
func (d *Dynamics) Reset(n int) {
	d.gamma = make([]float64, n)
	for j := range d.gamma {
		d.gamma[j] = d.base
	}
	if d.newton {
		d.halvings, d.sign = make([]uint8, n), make([]uint8, n)
	}
}

// Invalidate drops Newton's safeguard history without resizing. Any
// out-of-band change to prices or problem data (availability changes,
// workload edits, pins) must invalidate: stale history would damp across the
// discontinuity. The step sizes stay valid.
func (d *Dynamics) Invalidate() {
	clear(d.halvings)
	clear(d.sign)
}

// Gamma returns coordinate j's current gradient step size.
func (d *Dynamics) Gamma(j int) float64 { return d.gamma[j] }

// Fallbacks returns the cumulative count of Newton steps that fell back to
// the gradient step.
func (d *Dynamics) Fallbacks() uint64 { return d.fallbacks }

// Step advances every coordinate of in.Mu in place by StepAt and reports
// whether any coordinate moved.
func (d *Dynamics) Step(in StepInput) bool {
	changed := false
	for j, mu := range in.Mu {
		curv := 0.0
		if in.Curvature != nil {
			curv = in.Curvature[j]
		}
		var moved bool
		in.Mu[j], moved = d.StepAt(j, mu, in.ShareSums[j], in.Avail[j], curv, in.Congested[j])
		changed = changed || moved
	}
	return changed
}

// StepAt advances coordinate j one round from price mu, demand sum, capacity
// avail, curvature curv and congestion flag cong. It returns the next price
// and whether any of j's state moved bitwise (the price, its step size or the
// safeguard) — false means replaying the round with identical inputs would be
// a no-op, which is what lets a runtime skip a clean coordinate.
func (d *Dynamics) StepAt(j int, mu, sum, avail, curv float64, cong bool) (float64, bool) {
	if !d.newton {
		return d.gradient(j, mu, sum, avail, cong)
	}
	if InBand(sum, avail) {
		sum = avail // the reduction's rounding, not an excess
	}
	h, s := d.halvings[j], uint8(0)
	if sum > avail {
		s = 1
	} else if sum < avail {
		s = 2
	}
	if s|d.sign[j] == 3 { // the excess changed sign
		h = min(h+1, newtonMaxHalvings)
	} else if h > 0 {
		h--
	}
	guard := h != d.halvings[j] || (s != 0 && s != d.sign[j])
	d.halvings[j] = h
	if s != 0 {
		d.sign[j] = s
	}

	p := mu * curv / sum
	if mu <= 0 || curv <= curvatureFloor || sum <= 0 || p < newtonElasticityFloor {
		// Zero price, zero demand, or no usable interior response: the
		// Newton model is degenerate here; take the gradient step (which can
		// lift a zero price and parks released resources at zero).
		d.fallbacks++
		next, moved := d.gradient(j, mu, sum, avail, cong)
		return next, moved || guard
	}
	next := min(PowerStep(mu, sum, avail, math.Ldexp(1, -int(h))/p), MaxPrice)
	return next, guard || next != mu
}

// InBand reports whether have is want within the rounding band, the excess
// Newton treats as zero.
func InBand(have, want float64) bool { return math.Abs(have-want) <= roundingBand*want }

// PowerStep is Newton's step on a price scale x whose quantity have responds
// as have·(x'/x)^(−1/y): the x' at which it meets want, x·(have/want)^y,
// within the trust region [x/newtonTrustFactor, x·newtonTrustFactor].
func PowerStep(x, have, want, y float64) float64 {
	next := x // at want the step is Pow(1, y) == 1: no move to compute
	if have != want {
		next *= math.Pow(have/want, y)
	}
	return min(max(next, x/newtonTrustFactor), x*newtonTrustFactor)
}

// Reprice is Newton's StepAt advancing no state (step size, safeguard,
// fallback count): pricing a change twice leaves what pricing it once does.
func (d *Dynamics) Reprice(j int, mu, sum, avail, curv float64, cong bool) float64 {
	g, h, s, f := d.gamma[j], d.halvings[j], d.sign[j], d.fallbacks
	next, _ := d.StepAt(j, mu, sum, avail, curv, cong)
	d.gamma[j], d.halvings[j], d.sign[j], d.fallbacks = g, h, s, f
	return next
}

// gradient is coordinate j's reference step: ramp the step size on the
// congestion state, clamp it to the local stability bound
// (gamma ≤ max(base, 2·mu/B), floored at mu/2 in adaptive mode) and apply
// Equation 8.
func (d *Dynamics) gradient(j int, mu, sum, avail float64, cong bool) (float64, bool) {
	gamma := d.gamma[j]
	if d.adaptive {
		gamma = Ramp(gamma, d.base, cong)
	}
	changed := gamma != d.gamma[j]
	d.gamma[j] = gamma
	if d.adaptive && gamma < mu/2 {
		gamma = mu / 2
	}
	if cap := math.Max(d.base, 2*mu/avail); gamma > cap {
		gamma = cap
	}
	next := UpdateResource(mu, gamma, avail, sum)
	return next, changed || next != mu
}

package price

import (
	"fmt"
	"math"
)

// Price dynamics (DESIGN.md §12). The paper's dual update is scalar gradient
// projection with the Section 5.2 congestion-doubling step. Every iteration
// of it costs a full broadcast round in the distributed runtime, so
// rounds-to-converge is the dominant term in end-to-end convergence latency.
// Dynamics generalizes the per-entity StepSizer into a pluggable update over
// the resource prices with access to the measured demand, the availability,
// a local curvature estimate, and (for the accelerating solvers) a window of
// recent price iterates.
//
// Every implementation is coordinate-separable: coordinate j's next price
// depends only on coordinate j's inputs and history. That is a hard
// requirement, not a convenience — the synchronous engine drives one
// n-resource Dynamics coordinate by coordinate (skipping the clean ones)
// while each distributed resource node drives its own 1-resource instance,
// and separability is what makes the two bitwise identical.

// Solver identifies a price-dynamics implementation.
type Solver string

const (
	// SolverGradient is the paper's gradient projection with the Section 5.2
	// congestion-doubling heuristic — the reference dynamics.
	SolverGradient Solver = "gradient"
	// SolverNewton is diagonal Newton: each coordinate's step is scaled by
	// the closed-form controller response derivative (the local diagonal of
	// the dual Hessian). It is the default (core.Config.WithDefaults).
	SolverNewton Solver = "newton"
	// SolverAnderson is coordinate-wise Anderson acceleration over the
	// reference gradient map, with a fallback-to-gradient safeguard.
	SolverAnderson Solver = "anderson"
	// SolverPriceDiscovery is the multiplicative tâtonnement update of
	// Agrawal & Boyd's price-discovery method.
	SolverPriceDiscovery Solver = "price-discovery"
)

// Solvers lists every implemented solver, reference first.
func Solvers() []Solver {
	return []Solver{SolverGradient, SolverNewton, SolverAnderson, SolverPriceDiscovery}
}

// ParseSolver resolves a flag/config string to a Solver. The empty string
// stays empty: an unset solver, which each runtime resolves to its own
// default.
func ParseSolver(s string) (Solver, error) {
	switch Solver(s) {
	case SolverGradient, SolverNewton, SolverAnderson, SolverPriceDiscovery, "":
		return Solver(s), nil
	}
	return "", fmt.Errorf("price: unknown solver %q (have gradient, newton, anderson, price-discovery)", s)
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
	// Congested[j] reports demand beyond the ramping margin; it feeds the
	// adaptive step sizers exactly as in the reference dynamics.
	Congested []bool
	// Curvature[j] is the local demand response −∂(Σ share)/∂μ_j ≥ 0,
	// summed over interior subtasks. Only Newton reads it; callers of the
	// other solvers may leave it nil.
	Curvature []float64
}

// Dynamics advances resource prices once per round. Implementations are the
// four built-in solvers (the interface is sealed by base), must be
// coordinate-separable (see the package comment), and must not allocate in
// StepAt or Step once Reset has sized their buffers.
type Dynamics interface {
	// Solver identifies the implementation.
	Solver() Solver
	// StepAt advances coordinate j one round from price mu, demand sum,
	// capacity avail, curvature curv and congestion flag cong. It returns
	// the next price and whether any of j's state moved bitwise (the price,
	// its step sizer, or solver history) — false means replaying the round
	// with identical inputs would be a no-op, which is what lets a runtime
	// skip a clean coordinate.
	StepAt(j int, mu, sum, avail, curv float64, cong bool) (float64, bool)
	// Step advances every coordinate of in.Mu in place by StepAt and reports
	// whether any coordinate moved.
	Step(in StepInput) bool
	// Gamma returns coordinate j's current reference step size.
	Gamma(j int) float64
	// Reset sizes the solver for n coordinates and clears all history.
	Reset(n int)
	// Invalidate drops accumulated history without resizing. Any
	// out-of-band change to prices or problem data (availability changes,
	// workload edits, pins) must invalidate: stale history would extrapolate
	// across the discontinuity.
	Invalidate()
	// Fallbacks returns the cumulative count of safeguard fallbacks to the
	// reference gradient step.
	Fallbacks() uint64

	base() *coords
}

// DynamicsConfig carries the reference-step parameters every solver shares:
// accelerated solvers embed the exact reference update as their safeguard
// and bootstrap path.
type DynamicsConfig struct {
	// NewStep constructs one per-coordinate step sizer (the engine config's
	// NewStepSizer).
	NewStep func() StepSizer
	// BaseGamma is the base step size (floors the stability clamp).
	BaseGamma float64
	// PriceScaled enables the adaptive-mode step floor at Mu/2.
	PriceScaled bool
}

// NewDynamics builds the named solver. Unknown solvers panic: flag parsing
// goes through ParseSolver, so reaching here with a bad name is a
// programming error.
func NewDynamics(s Solver, cfg DynamicsConfig) Dynamics {
	c := coords{cfg: cfg}
	switch s {
	case SolverGradient:
		return &GradientProjection{c}
	case SolverNewton:
		return &DiagonalNewton{coords: c}
	case SolverAnderson:
		return &Anderson{coords: c}
	case SolverPriceDiscovery:
		return &PriceDiscovery{coords: c}
	}
	panic(fmt.Sprintf("price: unknown solver %q", s))
}

// GradStep is one coordinate's reference gradient-projection update — the
// exact arithmetic of the paper's dual step with the Section 5.2 adaptive
// heuristic and the local stability clamp. Every solver embeds it, as the
// whole update (gradient) or as safeguard, so "fall back to gradient" means
// bit-for-bit the reference behavior.
type GradStep struct {
	// Step sizes the gradient step, ramping under congestion when the
	// adaptive policy is configured.
	Step StepSizer
	// BaseGamma floors the stability clamp so prices can always rise from
	// zero at the configured base rate.
	BaseGamma float64
	// PriceScaled (adaptive mode) floors the effective step at Mu/2:
	// because demand scales as 1/sqrt(mu), a price far from equilibrium
	// needs steps proportional to itself to move in O(1) iterations.
	PriceScaled bool
}

// Update advances one coordinate by the reference dynamics: feed the sizer
// the congestion state, clamp the step to the local stability bound
// (gamma ≤ max(BaseGamma, 2·mu/B), floored at mu/2 in price-scaled mode),
// and apply Equation 8. With share = (c+l)/lat and lat = sqrt(mu·k/denom),
// demand scales as 1/sqrt(mu), so the iteration contracts only for
// gamma < 4·mu/B: clamping at half that (floored at the base step so the
// price can rise from zero) lets the multiplicative ramp run while the
// price is large without destabilizing it near the equilibrium. It returns
// the next price and whether any state moved bitwise (the price or the
// sizer's step size, which is the sizer's entire observable state).
func (g *GradStep) Update(mu, availability, shareSum float64, congested bool) (float64, bool) {
	g0 := g.Step.Gamma()
	g.Step.Observe(congested)
	gamma := g.Step.Gamma()
	changed := gamma != g0
	if g.PriceScaled && gamma < mu/2 {
		gamma = mu / 2
	}
	if cap := math.Max(g.BaseGamma, 2*mu/availability); gamma > cap {
		gamma = cap
	}
	next := UpdateResource(mu, gamma, availability, shareSum)
	return next, changed || next != mu
}

// coords is the state every solver shares: its configuration, one reference
// GradStep per coordinate (the whole update, the safeguard or the
// bootstrap), and the fallback count.
type coords struct {
	cfg       DynamicsConfig
	steps     []GradStep
	fallbacks uint64
}

func (c *coords) base() *coords { return c }

// Gamma implements Dynamics.
func (c *coords) Gamma(j int) float64 { return c.steps[j].Step.Gamma() }

// Fallbacks implements Dynamics.
func (c *coords) Fallbacks() uint64 { return c.fallbacks }

// Invalidate implements Dynamics for the memoryless solvers: the sizers'
// state remains valid across out-of-band changes.
func (c *coords) Invalidate() {}

// Reset implements Dynamics for the memoryless solvers: n fresh reference
// coordinate steps.
func (c *coords) Reset(n int) {
	c.steps = make([]GradStep, n)
	for i := range c.steps {
		c.steps[i] = GradStep{Step: c.cfg.NewStep(), BaseGamma: c.cfg.BaseGamma, PriceScaled: c.cfg.PriceScaled}
	}
}

// stepAll is Dynamics.Step over StepAt.
func stepAll(d Dynamics, in StepInput) bool {
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

// GradientProjection is the reference dynamics: the paper's per-coordinate
// gradient projection, expressed through the Dynamics interface.
type GradientProjection struct{ coords }

// Solver implements Dynamics.
func (g *GradientProjection) Solver() Solver { return SolverGradient }

// StepAt implements Dynamics.
func (g *GradientProjection) StepAt(j int, mu, sum, avail, _ float64, cong bool) (float64, bool) {
	return g.steps[j].Update(mu, avail, sum, cong)
}

// Step implements Dynamics.
func (g *GradientProjection) Step(in StepInput) bool { return stepAll(g, in) }

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

// newtonMaxHalvings caps the safeguard's damping at a 2^-30 step: small
// enough to break any cycle, large enough that doubling back recovers.
const newtonMaxHalvings = 30

// DiagonalNewton scales each coordinate's dual step by the closed-form
// demand response — the diagonal of the dual Hessian — applied in log-price
// coordinates. With share = (c+l)/(lat−e) and the stationarity solution
// lat−e = sqrt(mu·k/denom), each interior subtask responds as
// ∂share/∂mu = −share/(2·mu), so the measured demand has local log-log
// elasticity
//
//	p = −dlog(Σshare)/dlog(mu) = mu·curv/Σshare  (= 1/2 when fully interior).
//
// A plain Newton step mu' = mu + (Σshare−B)/curv linearizes that power law
// and therefore cannot move more than ~3× per round from below the root; the
// log-space Newton step solves the local model Σshare·(mu'/mu)^(−p) = B
// exactly:
//
//	mu' = mu · (Σshare/B)^(1/p),
//
// closing any demand gap in one move when the power-law model holds, and
// landing where the linear step lands when it is near the root. Coordinates
// with no interior response (every subtask bound-active), a zero price, or
// zero demand fall back to the reference gradient step.
//
// The model ignores the coupling between coordinates, and a Jacobi sweep
// over strongly coupled resources can overshoot every root at once and
// settle into a period-2 cycle (the paper's base workload under the
// weighted-sum utility does). The safeguard damps it per coordinate: when
// the excess Σshare − B changes sign between steps the log-step exponent
// halves, and every same-sign step doubles it back toward 1.
type DiagonalNewton struct {
	coords
	// halvings[j] is coordinate j's damping: its log step is scaled by
	// 2^-halvings[j]. sign[j] is the sign of its last nonzero excess
	// Σshare − B: 1 above capacity, 2 below, 0 before any.
	halvings, sign []uint8
}

// Solver implements Dynamics.
func (d *DiagonalNewton) Solver() Solver { return SolverNewton }

// Reset implements Dynamics.
func (d *DiagonalNewton) Reset(n int) {
	d.coords.Reset(n)
	d.halvings, d.sign = make([]uint8, n), make([]uint8, n)
}

// Invalidate implements Dynamics: the safeguard's history does not survive
// an out-of-band change.
func (d *DiagonalNewton) Invalidate() {
	clear(d.halvings)
	clear(d.sign)
}

// Step implements Dynamics.
func (d *DiagonalNewton) Step(in StepInput) bool { return stepAll(d, in) }

// StepAt implements Dynamics.
func (d *DiagonalNewton) StepAt(j int, mu, sum, avail, curv float64, cong bool) (float64, bool) {
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
		// Newton model is degenerate here; take the reference step (which
		// can lift a zero price and parks released resources at zero).
		d.fallbacks++
		next, moved := d.steps[j].Update(mu, avail, sum, cong)
		return next, moved || guard
	}
	next := mu * math.Pow(sum/avail, math.Ldexp(1, -int(h))/p)
	if next > mu*newtonTrustFactor {
		next = mu * newtonTrustFactor
	} else if next < mu/newtonTrustFactor {
		next = mu / newtonTrustFactor
	}
	if next > MaxPrice {
		next = MaxPrice
	}
	return next, guard || next != mu
}

// andersonWindow is the mixing window m: the extrapolation sees the last m
// (price, residual) pairs of each coordinate.
const andersonWindow = 5

// Anderson is coordinate-wise Anderson acceleration (type II, ridge
// regularized) over the reference gradient map g: each round it evaluates
// the reference step g(mu), forms the residual f = g(mu) − mu, and
// extrapolates the next price from the window of recent (mu, f) pairs. The
// per-coordinate (diagonal) mixing keeps the solver distributable — every
// resource node can run its own window — at the cost of ignoring
// cross-resource residual correlations.
//
// Safeguards (counted by Fallbacks, and the window is cleared): the
// extrapolated price is rejected when it is non-finite or outside
// [0, MaxPrice], and retroactively when the residual grew after an accepted
// extrapolation — the scalar proxy for "the step increased the KKT
// residuals". A rejected round takes the already-computed reference
// gradient step, so Anderson can never do worse than a cleared-window
// restart of the reference dynamics.
type Anderson struct {
	coords
	// xs/fs hold each coordinate's window as m chronological (price,
	// residual) pairs in one flat buffer; cnt is the per-coordinate fill.
	xs, fs []float64
	cnt    []int
	// accepted marks coordinates whose previous round took an extrapolated
	// step; prevAbsF is the residual magnitude it is judged against.
	accepted []bool
	prevAbsF []float64
}

// Solver implements Dynamics.
func (a *Anderson) Solver() Solver { return SolverAnderson }

// Reset implements Dynamics.
func (a *Anderson) Reset(n int) {
	const m = andersonWindow
	a.coords.Reset(n)
	a.xs = make([]float64, n*m)
	a.fs = make([]float64, n*m)
	a.cnt = make([]int, n)
	a.accepted = make([]bool, n)
	a.prevAbsF = make([]float64, n)
}

// Invalidate implements Dynamics: drop every coordinate's window — iterates
// straddling an out-of-band change would extrapolate across the
// discontinuity.
func (a *Anderson) Invalidate() {
	for j := range a.cnt {
		a.clear(j)
	}
}

// clear drops one coordinate's window.
func (a *Anderson) clear(j int) {
	a.cnt[j] = 0
	a.accepted[j] = false
}

// push appends a (price, residual) pair to coordinate j's window, shifting
// the oldest pair out when full (m is small, so the shift is cheaper than
// ring arithmetic and keeps the window chronological). It reports whether
// the window changed: pushing onto a full window of identical pairs does not.
func (a *Anderson) push(j int, x, f float64) bool {
	const m = andersonWindow
	base := j * m
	xs, fs := a.xs[base:base+m], a.fs[base:base+m]
	if a.cnt[j] == m {
		same := true
		for i := range xs {
			same = same && xs[i] == x && fs[i] == f
		}
		if same {
			return false
		}
		copy(xs, xs[1:])
		copy(fs, fs[1:])
		a.cnt[j]--
	}
	xs[a.cnt[j]], fs[a.cnt[j]] = x, f
	a.cnt[j]++
	return true
}

// Step implements Dynamics.
func (a *Anderson) Step(in StepInput) bool { return stepAll(a, in) }

// StepAt implements Dynamics.
func (a *Anderson) StepAt(j int, mu, sum, avail, _ float64, cong bool) (float64, bool) {
	const m = andersonWindow
	// The reference map g is evaluated every round: it advances the
	// coordinate's adaptive sizer exactly as the reference dynamics would,
	// it is the fallback value, and g(mu) − mu is the residual the
	// extrapolation mixes.
	gnext, changed := a.steps[j].Update(mu, avail, sum, cong)
	f := gnext - mu
	absF := math.Abs(f)

	// Delayed safeguard: an accepted extrapolation must have shrunk the
	// residual. If it grew, the window is extrapolating badly — drop it and
	// take the reference step.
	if a.accepted[j] && absF > a.prevAbsF[j] {
		a.fallbacks++
		a.clear(j)
		changed = true
	}
	changed = changed || a.prevAbsF[j] != absF
	a.prevAbsF[j] = absF
	changed = a.push(j, mu, f) || changed

	accepted := false
	next := gnext
	if a.cnt[j] >= 2 {
		// Type-II extrapolation with ridge regularization: minimize
		// |f_k − ΔF·γ|² + λ|γ|², whose closed form for a scalar residual
		// sequence is γ_i = Δf_i·f_k / (Σ Δf² + λ). λ scales with f_k² so a
		// stagnant window (tiny Δf against a large residual) degrades to the
		// plain gradient step instead of amplifying noise.
		base := j * m
		c := a.cnt[j]
		denom := 0.0
		for i := 0; i < c-1; i++ {
			df := a.fs[base+i+1] - a.fs[base+i]
			denom += df * df
		}
		next = mu + f
		if denom > 0 {
			scale := f / (denom + 1e-10*f*f)
			for i := 0; i < c-1; i++ {
				df := a.fs[base+i+1] - a.fs[base+i]
				dx := a.xs[base+i+1] - a.xs[base+i]
				next -= scale * df * (dx + df)
			}
		}
		// Immediate safeguard: reject extrapolations outside the price
		// domain.
		if math.IsNaN(next) || math.IsInf(next, 0) || next < 0 || next > MaxPrice {
			a.fallbacks++
			a.clear(j)
			next, changed = gnext, true
		} else {
			accepted = next != gnext
		}
	}
	changed = changed || a.accepted[j] != accepted
	a.accepted[j] = accepted
	return next, changed || next != mu
}

// pdRatioMax clamps one multiplicative update to [1/pdRatioMax, pdRatioMax]
// per round, the stability guard of the tâtonnement iteration.
const pdRatioMax = 2

// pdSnapFloor is the price below which an uncongested coordinate snaps to
// exactly zero: the multiplicative update alone decays geometrically but
// never reaches the reference fixed point's exact zero.
const pdSnapFloor = 1e-9

// PriceDiscovery is the multiplicative price update of Agrawal & Boyd's
// fast price-discovery method: mu' = mu · demand/capacity, clamped to
// a per-round ratio bound. Over-demanded coordinates raise their price in
// proportion to the violation ratio, giving scale-free convergence — the
// contraction rate is independent of the price magnitude, where the
// additive gradient step must ramp its step size first. Zero prices cannot
// move multiplicatively, so those coordinates bootstrap with the reference
// gradient step (not a safeguard: Fallbacks stays 0).
type PriceDiscovery struct{ coords }

// Solver implements Dynamics.
func (p *PriceDiscovery) Solver() Solver { return SolverPriceDiscovery }

// Step implements Dynamics.
func (p *PriceDiscovery) Step(in StepInput) bool { return stepAll(p, in) }

// StepAt implements Dynamics.
func (p *PriceDiscovery) StepAt(j int, mu, sum, avail, _ float64, cong bool) (float64, bool) {
	if mu <= 0 {
		// Multiplicative updates cannot lift a zero price; the reference
		// gradient step can (and leaves a released resource parked at zero).
		return p.steps[j].Update(mu, avail, sum, cong)
	}
	next := mu * min(max(sum/avail, 1/pdRatioMax), pdRatioMax)
	if next < pdSnapFloor && sum < avail {
		next = 0
	}
	if next > MaxPrice {
		next = MaxPrice
	}
	return next, next != mu
}

package price

import (
	"fmt"
	"math"
)

// Price dynamics (DESIGN.md §12). The paper's dual update is scalar gradient
// projection with the Section 5.2 congestion-doubling step. Every iteration
// of it costs a full broadcast round in the distributed runtime, so
// rounds-to-converge is the dominant term in end-to-end convergence latency.
// Dynamics generalizes the per-entity StepSizer into a pluggable vector
// update over all resource prices with access to the measured demand, the
// availability, a local curvature estimate, and (for the accelerating
// solvers) a window of recent price iterates.
//
// Every implementation is coordinate-separable: coordinate j's next price
// depends only on coordinate j's inputs and history. That is a hard
// requirement, not a convenience — the synchronous engine drives one
// n-resource Dynamics while each distributed resource node drives its own
// 1-resource instance, and separability is what makes the two bitwise
// identical.

// Solver identifies a price-dynamics implementation.
type Solver string

const (
	// SolverGradient is the paper's gradient projection with the Section 5.2
	// congestion-doubling heuristic — the reference dynamics.
	SolverGradient Solver = "gradient"
	// SolverNewton is diagonal Newton: each coordinate's step is scaled by
	// the closed-form controller response derivative (the local diagonal of
	// the dual Hessian).
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

// ParseSolver resolves a flag/config string to a Solver.
func ParseSolver(s string) (Solver, error) {
	switch Solver(s) {
	case SolverGradient, SolverNewton, SolverAnderson, SolverPriceDiscovery:
		return Solver(s), nil
	case "":
		return SolverGradient, nil
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
	// summed over interior subtasks. Solvers that report NeedsCurvature
	// false ignore it and callers may leave it nil.
	Curvature []float64
}

// Dynamics advances the full price vector once per round. Implementations
// must be coordinate-separable (see the package comment) and must not
// allocate in Step once Reset has sized their buffers.
type Dynamics interface {
	// Solver identifies the implementation.
	Solver() Solver
	// Step advances in.Mu in place and reports whether any coordinate's
	// observable state moved bitwise (a price, or a step sizer's size) —
	// false means replaying the round with identical inputs would be a
	// no-op.
	Step(in StepInput) bool
	// Reset sizes the solver for n coordinates and clears all history.
	Reset(n int)
	// Invalidate drops accumulated iterate history without resizing. Any
	// out-of-band change to prices or problem data (availability changes,
	// workload edits) must invalidate: stale windows would extrapolate
	// across the discontinuity.
	Invalidate()
	// NeedsCurvature reports whether Step consumes StepInput.Curvature.
	NeedsCurvature() bool
	// Fallbacks returns the cumulative count of safeguard fallbacks to the
	// reference gradient step.
	Fallbacks() uint64
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
	switch s {
	case SolverGradient, "":
		return NewGradientProjection(cfg)
	case SolverNewton:
		return NewDiagonalNewton(cfg)
	case SolverAnderson:
		return NewAnderson(cfg)
	case SolverPriceDiscovery:
		return NewPriceDiscovery(cfg)
	}
	panic(fmt.Sprintf("price: unknown solver %q", s))
}

// GradStep is one coordinate's reference gradient-projection update — the
// exact arithmetic of the paper's dual step with the Section 5.2 adaptive
// heuristic and the local stability clamp. The engine and the distributed
// resource nodes step their prices with it, and every accelerated solver
// embeds it as safeguard, so "fall back to gradient" means bit-for-bit the
// reference behavior.
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
// sizer's step size, which is the sizer's entire observable state): false
// means a fixed point — replaying the update with the same demand would
// change nothing, which is what lets a resource be skipped as clean.
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

// Reset restores the sizer's initial step size.
func (g *GradStep) Reset() { g.Step.Reset() }

// gradSteps builds n reference coordinate steps.
func gradSteps(cfg DynamicsConfig, n int) []GradStep {
	steps := make([]GradStep, n)
	for i := range steps {
		steps[i] = GradStep{Step: cfg.NewStep(), BaseGamma: cfg.BaseGamma, PriceScaled: cfg.PriceScaled}
	}
	return steps
}

// GradientProjection is the reference dynamics: the paper's per-coordinate
// gradient projection, expressed through the Dynamics interface. The
// engine's built-in agent path and this implementation share GradStep, so
// they are bitwise interchangeable.
type GradientProjection struct {
	cfg   DynamicsConfig
	steps []GradStep
}

var _ Dynamics = (*GradientProjection)(nil)

// NewGradientProjection builds the reference dynamics; call Reset before
// the first Step.
func NewGradientProjection(cfg DynamicsConfig) *GradientProjection {
	return &GradientProjection{cfg: cfg}
}

// Solver implements Dynamics.
func (g *GradientProjection) Solver() Solver { return SolverGradient }

// NeedsCurvature implements Dynamics.
func (g *GradientProjection) NeedsCurvature() bool { return false }

// Fallbacks implements Dynamics: the reference never falls back.
func (g *GradientProjection) Fallbacks() uint64 { return 0 }

// Reset implements Dynamics.
func (g *GradientProjection) Reset(n int) { g.steps = gradSteps(g.cfg, n) }

// Invalidate implements Dynamics: the gradient step is memoryless beyond
// its sizer, whose state remains valid across out-of-band changes (it did
// for the pre-Dynamics engine too).
func (g *GradientProjection) Invalidate() {}

// Step implements Dynamics.
func (g *GradientProjection) Step(in StepInput) bool {
	changed := false
	for j := range in.Mu {
		next, ch := g.steps[j].Update(in.Mu[j], in.Avail[j], in.ShareSums[j], in.Congested[j])
		in.Mu[j] = next
		changed = changed || ch
	}
	return changed
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

// DiagonalNewton scales each coordinate's dual step by the closed-form
// demand response — the diagonal of the dual Hessian — applied in log-price
// coordinates. With share = (c+l)/(lat−e) and the stationarity solution
// lat−e = sqrt(mu·k/denom), each interior subtask responds as
// ∂share/∂mu = −share/(2·mu) (Controller.ResponseSlope), so the measured
// demand has local log-log elasticity
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
type DiagonalNewton struct {
	cfg       DynamicsConfig
	steps     []GradStep
	fallbacks uint64
}

var _ Dynamics = (*DiagonalNewton)(nil)

// NewDiagonalNewton builds the diagonal-Newton dynamics; call Reset before
// the first Step.
func NewDiagonalNewton(cfg DynamicsConfig) *DiagonalNewton {
	return &DiagonalNewton{cfg: cfg}
}

// Solver implements Dynamics.
func (d *DiagonalNewton) Solver() Solver { return SolverNewton }

// NeedsCurvature implements Dynamics.
func (d *DiagonalNewton) NeedsCurvature() bool { return true }

// Fallbacks implements Dynamics.
func (d *DiagonalNewton) Fallbacks() uint64 { return d.fallbacks }

// Reset implements Dynamics.
func (d *DiagonalNewton) Reset(n int) { d.steps = gradSteps(d.cfg, n) }

// Invalidate implements Dynamics: Newton is memoryless per round.
func (d *DiagonalNewton) Invalidate() {}

// Step implements Dynamics.
func (d *DiagonalNewton) Step(in StepInput) bool {
	changed := false
	for j := range in.Mu {
		mu := in.Mu[j]
		curv := in.Curvature[j]
		sum := in.ShareSums[j]
		p := mu * curv / sum
		if mu <= 0 || curv <= curvatureFloor || sum <= 0 || p < newtonElasticityFloor {
			// Zero price, zero demand, or no usable interior response: the
			// Newton model is degenerate here; take the reference step (which
			// can lift a zero price and parks released resources at zero).
			next, ch := d.steps[j].Update(mu, in.Avail[j], sum, in.Congested[j])
			in.Mu[j] = next
			changed = changed || ch
			d.fallbacks++
			continue
		}
		next := mu * math.Pow(sum/in.Avail[j], 1/p)
		if next > mu*newtonTrustFactor {
			next = mu * newtonTrustFactor
		} else if next < mu/newtonTrustFactor {
			next = mu / newtonTrustFactor
		}
		if next > MaxPrice {
			next = MaxPrice
		}
		if next != mu {
			changed = true
		}
		in.Mu[j] = next
	}
	return changed
}

// andersonWindow is the default mixing window m: the extrapolation sees the
// last m (price, residual) pairs of each coordinate.
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
	cfg DynamicsConfig
	// Window is the mixing depth m (0 = andersonWindow). Set before Reset.
	Window int

	steps []GradStep
	// xs/fs hold each coordinate's window as m chronological (price,
	// residual) pairs in one flat buffer; cnt is the per-coordinate fill.
	xs, fs []float64
	cnt    []int
	// accepted marks coordinates whose previous round took an extrapolated
	// step; prevAbsF is the residual magnitude it is judged against.
	accepted  []bool
	prevAbsF  []float64
	fallbacks uint64
}

var _ Dynamics = (*Anderson)(nil)

// NewAnderson builds the Anderson-accelerated dynamics; call Reset before
// the first Step.
func NewAnderson(cfg DynamicsConfig) *Anderson {
	return &Anderson{cfg: cfg}
}

// Solver implements Dynamics.
func (a *Anderson) Solver() Solver { return SolverAnderson }

// NeedsCurvature implements Dynamics.
func (a *Anderson) NeedsCurvature() bool { return false }

// Fallbacks implements Dynamics.
func (a *Anderson) Fallbacks() uint64 { return a.fallbacks }

// window returns the configured mixing depth.
func (a *Anderson) window() int {
	if a.Window > 0 {
		return a.Window
	}
	return andersonWindow
}

// Reset implements Dynamics.
func (a *Anderson) Reset(n int) {
	m := a.window()
	a.steps = gradSteps(a.cfg, n)
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
		a.cnt[j] = 0
		a.accepted[j] = false
	}
}

// clear drops one coordinate's window.
func (a *Anderson) clear(j int) {
	a.cnt[j] = 0
	a.accepted[j] = false
}

// push appends a (price, residual) pair to coordinate j's window, shifting
// the oldest pair out when full (m is small, so the shift is cheaper than
// ring arithmetic and keeps the window chronological).
func (a *Anderson) push(j int, x, f float64) {
	m := a.window()
	base := j * m
	if a.cnt[j] == m {
		copy(a.xs[base:base+m-1], a.xs[base+1:base+m])
		copy(a.fs[base:base+m-1], a.fs[base+1:base+m])
		a.cnt[j]--
	}
	a.xs[base+a.cnt[j]] = x
	a.fs[base+a.cnt[j]] = f
	a.cnt[j]++
}

// Step implements Dynamics.
func (a *Anderson) Step(in StepInput) bool {
	m := a.window()
	changed := false
	for j := range in.Mu {
		mu := in.Mu[j]
		// The reference map g is evaluated every round: it advances the
		// coordinate's adaptive sizer exactly as the reference dynamics
		// would, it is the fallback value, and g(mu) − mu is the residual
		// the extrapolation mixes.
		gnext, ch := a.steps[j].Update(mu, in.Avail[j], in.ShareSums[j], in.Congested[j])
		changed = changed || ch
		f := gnext - mu
		absF := math.Abs(f)

		// Delayed safeguard: an accepted extrapolation must have shrunk
		// the residual. If it grew, the window is extrapolating badly —
		// drop it and take the reference step.
		if a.accepted[j] && absF > a.prevAbsF[j] {
			a.fallbacks++
			a.clear(j)
		}
		a.prevAbsF[j] = absF
		a.push(j, mu, f)

		if a.cnt[j] < 2 {
			in.Mu[j] = gnext
			a.accepted[j] = false
			continue
		}

		// Type-II extrapolation with ridge regularization: minimize
		// |f_k − ΔF·γ|² + λ|γ|², whose closed form for a scalar residual
		// sequence is γ_i = Δf_i·f_k / (Σ Δf² + λ). λ scales with f_k² so a
		// stagnant window (tiny Δf against a large residual) degrades to
		// the plain gradient step instead of amplifying noise.
		base := j * m
		c := a.cnt[j]
		denom := 0.0
		for i := 0; i < c-1; i++ {
			df := a.fs[base+i+1] - a.fs[base+i]
			denom += df * df
		}
		next := mu + f
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
			in.Mu[j] = gnext
			a.accepted[j] = false
			continue
		}
		if next != mu {
			changed = true
		}
		in.Mu[j] = next
		a.accepted[j] = next != gnext
	}
	return changed
}

// pdRatioMax clamps one multiplicative update to [1/pdRatioMax, pdRatioMax]
// per round, the stability guard of the tâtonnement iteration.
const pdRatioMax = 2

// pdSnapFloor is the price below which an uncongested coordinate snaps to
// exactly zero: the multiplicative update alone decays geometrically but
// never reaches the reference fixed point's exact zero.
const pdSnapFloor = 1e-9

// PriceDiscovery is the multiplicative price update of Agrawal & Boyd's
// fast price-discovery method: mu' = mu · (demand/capacity)^eta, clamped to
// a per-round ratio bound. Over-demanded coordinates raise their price in
// proportion to the violation ratio, giving scale-free convergence — the
// contraction rate is independent of the price magnitude, where the
// additive gradient step must ramp its step size first. Zero prices cannot
// move multiplicatively, so those coordinates bootstrap with the reference
// gradient step.
type PriceDiscovery struct {
	cfg DynamicsConfig
	// Eta is the update exponent (0 = 1, the plain ratio update).
	Eta float64

	steps []GradStep
}

var _ Dynamics = (*PriceDiscovery)(nil)

// NewPriceDiscovery builds the multiplicative dynamics; call Reset before
// the first Step.
func NewPriceDiscovery(cfg DynamicsConfig) *PriceDiscovery {
	return &PriceDiscovery{cfg: cfg}
}

// Solver implements Dynamics.
func (p *PriceDiscovery) Solver() Solver { return SolverPriceDiscovery }

// NeedsCurvature implements Dynamics.
func (p *PriceDiscovery) NeedsCurvature() bool { return false }

// Fallbacks implements Dynamics: the multiplicative update has no unsafe
// region — the zero-price bootstrap is part of the method, not a safeguard.
func (p *PriceDiscovery) Fallbacks() uint64 { return 0 }

// Reset implements Dynamics.
func (p *PriceDiscovery) Reset(n int) { p.steps = gradSteps(p.cfg, n) }

// Invalidate implements Dynamics: the update is memoryless.
func (p *PriceDiscovery) Invalidate() {}

// eta returns the configured exponent.
func (p *PriceDiscovery) eta() float64 {
	if p.Eta > 0 {
		return p.Eta
	}
	return 1
}

// Step implements Dynamics.
func (p *PriceDiscovery) Step(in StepInput) bool {
	eta := p.eta()
	changed := false
	for j := range in.Mu {
		mu := in.Mu[j]
		if mu <= 0 {
			// Multiplicative updates cannot lift a zero price; the
			// reference gradient step can (and leaves a released resource
			// parked at zero).
			next, ch := p.steps[j].Update(mu, in.Avail[j], in.ShareSums[j], in.Congested[j])
			in.Mu[j] = next
			changed = changed || ch
			continue
		}
		ratio := in.ShareSums[j] / in.Avail[j]
		if eta != 1 {
			ratio = math.Pow(ratio, eta)
		}
		if ratio > pdRatioMax {
			ratio = pdRatioMax
		} else if ratio < 1/pdRatioMax {
			ratio = 1 / pdRatioMax
		}
		next := mu * ratio
		if next < pdSnapFloor && in.ShareSums[j] < in.Avail[j] {
			next = 0
		}
		if next > MaxPrice {
			next = MaxPrice
		}
		if next != mu {
			changed = true
		}
		in.Mu[j] = next
	}
	return changed
}

package core

import (
	"lla/internal/price"
)

// ResourceAgent is the per-resource price computer of Section 4.3: it
// receives the latencies (equivalently, shares) of the subtasks scheduled on
// its resource and updates the resource price mu by gradient projection
// (Equation 8). Like Controller it is runtime-agnostic: the synchronous
// engine and the distributed runtime both drive it.
type ResourceAgent struct {
	p  *Problem
	ri int

	// Mu is the current resource price (Lagrange multiplier of the capacity
	// constraint).
	Mu float64
	// grad is the reference gradient-projection coordinate update: the step
	// sizer (ramping under congestion when the adaptive policy is
	// configured), the base-step floor, and the price-scaled step floor of
	// adaptive mode — see price.GradStep for the arithmetic.
	grad price.GradStep
}

// NewResourceAgent builds the agent for resource ri with an initial price.
// A positive initial price lets the first latency allocation see capacity
// pressure immediately; the paper's iterations behave equivalently after a
// few steps regardless of the start.
func NewResourceAgent(p *Problem, ri int, step price.StepSizer, baseGamma float64, priceScaled bool, initialMu float64) *ResourceAgent {
	return &ResourceAgent{p: p, ri: ri, Mu: initialMu,
		grad: price.GradStep{Step: step, BaseGamma: baseGamma, PriceScaled: priceScaled}}
}

// ShareSum computes the total share demanded on this resource given every
// controller's current latencies. latOf returns controller latencies by task
// index.
func (a *ResourceAgent) ShareSum(latOf func(ti int) []float64) float64 {
	r := &a.p.Resources[a.ri]
	sum := 0.0
	for _, sub := range r.Subs {
		ti, si := sub[0], sub[1]
		sum += a.p.Tasks[ti].Share[si].Share(latOf(ti)[si])
	}
	return sum
}

// ShareSumFrom reduces the total demand on this resource from pre-evaluated
// per-subtask share values (indexed [task][subtask]). The summation order is
// the compiled subtask order — identical to ShareSum's — so the reduction is
// bitwise-deterministic no matter how many workers produced the values.
func (a *ResourceAgent) ShareSumFrom(shares [][]float64) float64 {
	r := &a.p.Resources[a.ri]
	sum := 0.0
	for _, sub := range r.Subs {
		sum += shares[sub[0]][sub[1]]
	}
	return sum
}

// CongestionMargin is the relative violation below which a constraint is
// treated as merely saturated rather than congested for step-size ramping.
// At LLA's optimum resources sit exactly at capacity, so without a margin
// the adaptive heuristic's congested flag would flicker forever and the
// alternating step sizes would sustain a limit cycle around the optimum.
// Price *updates* always use the exact gradients; the margin gates only the
// ramping.
const CongestionMargin = 0.01

// Congested reports whether the given demand violates the capacity
// constraint beyond the ramping margin.
func (a *ResourceAgent) Congested(shareSum float64) bool {
	return shareSum > a.p.Resources[a.ri].Availability*(1+CongestionMargin)
}

// UpdatePrice performs the gradient-projection step (Equation 8) for the
// given demand and feeds the step sizer with the congestion state.
//
// The effective step is clamped to the local stability bound: with
// share = (c+l)/lat and lat = sqrt(mu·k/denom), demand scales as 1/sqrt(mu),
// so the price iteration contracts only for gamma < 4·mu/B. Clamping at
// 2·mu/B (safety factor 2, floored at the base step so the price can rise
// from zero) lets the paper's multiplicative ramp run while the price is
// large without destabilizing it near the equilibrium. The arithmetic lives
// in price.GradStep — the reference coordinate update the accelerated
// solvers embed as their safeguard.
//
// It reports whether the call moved any agent state — the price or the step
// sizer's size, compared bitwise. A false return means the update was a
// fixed point: replaying it with the same demand would change nothing,
// which is what lets Engine.Step mark the resource clean (the
// sizer check relies on Gamma() being the sizer's entire observable state,
// true of both price.Fixed and price.Adaptive).
func (a *ResourceAgent) UpdatePrice(shareSum float64) bool {
	next, changed := a.grad.Update(a.Mu, a.p.Resources[a.ri].Availability, shareSum, a.Congested(shareSum))
	a.Mu = next
	return changed
}

// StepGamma returns the step sizer's current step size — the state of the
// Section 5.2 adaptive controller, recorded per iteration by the
// observability layer.
func (a *ResourceAgent) StepGamma() float64 { return a.grad.Step.Gamma() }

// ResetPrice restores the initial price and step size; used after structural
// workload changes.
func (a *ResourceAgent) ResetPrice(initialMu float64) {
	a.Mu = initialMu
	a.grad.Reset()
}

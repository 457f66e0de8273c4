// Package price implements LLA's price machinery (Section 4.3): the
// gradient-projection updates for resource prices (Equation 8) and path
// prices (Equation 9), and the step-size policies of Section 5.2 (fixed, and
// the adaptive congestion-doubling heuristic).
package price

import "fmt"

// MaxPrice caps prices: on an infeasible workload the violations never
// clear, so prices grow without bound (exponentially under price-scaled
// steps) and would eventually overflow to +Inf and poison the latency
// arithmetic with NaNs. The cap is astronomically above any feasible workload's
// equilibrium prices and does not affect converging runs.
const MaxPrice = 1e150

// UpdateResource applies Equation 8 with projection onto [0, MaxPrice]:
//
//	mu(t+1) = max(0, mu(t) - gamma * (B_r - Σ_s share_s)).
//
// A positive slack (resource under-utilized) drives the price down; excess
// demand drives it up.
func UpdateResource(mu, gamma, availability, shareSum float64) float64 {
	next := mu - gamma*(availability-shareSum)
	if next < 0 {
		return 0
	}
	if next > MaxPrice {
		return MaxPrice
	}
	return next
}

// UpdatePath applies Equation 9 with projection onto [0, MaxPrice]:
//
//	lambda(t+1) = max(0, lambda(t) - gamma * (1 - Σ_s lat_s / C_i)).
//
// Slack in the path deadline drives the price down; a violated critical
// time drives it up.
func UpdatePath(lambda, gamma, pathLatMs, criticalMs float64) float64 {
	next := lambda - gamma*(1-pathLatMs/criticalMs)
	if next < 0 {
		return 0
	}
	if next > MaxPrice {
		return MaxPrice
	}
	return next
}

// StepSizer yields the step size gamma for each priced entity (a resource or
// a path) at every iteration, optionally reacting to congestion feedback.
type StepSizer interface {
	// Gamma returns the current step size for the entity.
	Gamma() float64
	// Observe feeds the congestion state after an iteration: congested is
	// true when the entity's constraint is violated (share sum exceeds
	// availability, or path latency exceeds the critical time).
	Observe(congested bool)
	// Reset restores the initial step size.
	Reset()
}

// Fixed is a constant step size.
type Fixed struct {
	Value float64
}

var _ StepSizer = (*Fixed)(nil)

// Gamma implements StepSizer.
func (f *Fixed) Gamma() float64 { return f.Value }

// Observe implements StepSizer (no-op).
func (f *Fixed) Observe(bool) {}

// Reset implements StepSizer (no-op).
func (f *Fixed) Reset() {}

// Adaptive implements the paper's heuristic (Section 5.2): start from Base;
// while the entity is congested, double gamma each iteration (bounded by
// Max); as soon as it becomes uncongested, revert to Base. Fast multiplicative
// ramping escapes congestion quickly, and the reversion restores the
// fine-grained updates needed to settle on the convergence point.
type Adaptive struct {
	// Base is the initial and post-congestion step size.
	Base float64
	// Max caps the doubling to keep updates numerically sane. Zero means
	// use DefaultAdaptiveMax.
	Max float64

	cur float64
}

// DefaultAdaptiveMax bounds the adaptive step size when no explicit cap is
// configured.
const DefaultAdaptiveMax = 1024

var _ StepSizer = (*Adaptive)(nil)

// NewAdaptive returns the paper's adaptive step-size controller with the
// given starting value.
func NewAdaptive(base float64) *Adaptive {
	if base <= 0 {
		panic(fmt.Sprintf("price: adaptive base step must be positive, got %v", base))
	}
	return &Adaptive{Base: base, cur: base}
}

// Gamma implements StepSizer.
func (a *Adaptive) Gamma() float64 {
	if a.cur == 0 {
		a.cur = a.Base
	}
	return a.cur
}

// Observe implements StepSizer.
func (a *Adaptive) Observe(congested bool) {
	a.cur = Ramp(a.Gamma(), a.Base, a.Max, congested)
}

// Ramp is the adaptive heuristic on a bare step size: the size that follows
// cur given this iteration's congestion state — doubled (capped at max, 0
// meaning DefaultAdaptiveMax) while congested, back to base otherwise.
// Adaptive is this function plus its own storage; the task controllers keep
// their path step sizes in flat arrays and call it directly.
func Ramp(cur, base, max float64, congested bool) float64 {
	if !congested {
		return base
	}
	if max == 0 {
		max = DefaultAdaptiveMax
	}
	if cur *= 2; cur > max {
		cur = max
	}
	return cur
}

// Reset implements StepSizer.
func (a *Adaptive) Reset() { a.cur = a.Base }

// Package price implements LLA's price machinery (Section 4.3): the
// gradient-projection updates for resource prices (Equation 8) and path
// prices (Equation 9), the adaptive congestion-doubling step of Section 5.2,
// and the resource-price Dynamics that runs them.
package price

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

// DefaultAdaptiveMax caps the adaptive step size.
const DefaultAdaptiveMax = 1024

// Ramp is the paper's adaptive heuristic (Section 5.2) on a bare step size:
// the size that follows cur given this iteration's congestion state — doubled
// (capped at DefaultAdaptiveMax) while congested, back to base
// otherwise. Fast multiplicative ramping escapes congestion quickly, and the
// reversion restores the fine-grained updates needed to settle on the
// convergence point.
// Dynamics keeps its resource step sizes, and the task controllers their
// path step sizes, in flat arrays and call it directly.
func Ramp(cur, base float64, congested bool) float64 {
	if !congested {
		return base
	}
	if cur *= 2; cur > DefaultAdaptiveMax {
		cur = DefaultAdaptiveMax
	}
	return cur
}

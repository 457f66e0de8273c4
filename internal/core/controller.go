package core

import (
	"math"

	"lla/internal/price"
	"lla/internal/share"
)

// Controller is the task controller of Section 4.1: it owns one task's path
// prices and latencies, and — given the current resource prices — performs
// the controller half of an iteration (Solve). Controllers are deliberately
// self-contained message-driven state machines so the same code runs inside
// the synchronous Engine and the distributed runtime. The state is four
// plain float64 vectors. A distributed node's controller allocates its own
// (NewController); the engine keeps one flat array of each for all its
// tasks and builds a controller over a task's windows when it needs one
// (Engine.Controller), so there is no per-task object on its hot path.
type Controller struct {
	p  *Problem
	ti int

	// LatMs[s] is the controller's current latency assignment.
	LatMs []float64
	// Lambda[pi] is the price of path pi (the Lagrange multiplier of its
	// critical-time constraint).
	Lambda []float64
	// gamma[pi] is path pi's current step size; step advances it.
	gamma []float64
	// shares[s] is subtask s's share at LatMs[s] as of the last Solve,
	// which rewrites an entry exactly when its latency moves, flagged
	// (negated) while the subtask is bound-active. The engine reduces each
	// resource's demand and curvature from these.
	shares []float64

	// step sizes the path-price steps: its Gamma is also the floor of the
	// stability clamp, and in adaptive mode the effective step is floored at
	// half the local price scale, mirroring price.Dynamics' gradient step on
	// resource prices.
	step StepPolicy
}

// NewController builds the controller for task ti with latencies initialized
// to a fair share split of each subtask's resource (every subtask on a
// resource starts with an equal fraction of its availability). step must
// have been through Config.WithDefaults.
func NewController(p *Problem, ti int, step StepPolicy) *Controller {
	n, np := len(p.Tasks[ti].Res), p.NumPaths(ti)
	state := make([]float64, 2*n+2*np)
	c := &Controller{p: p, ti: ti, step: step,
		LatMs: state[:n:n], shares: state[n : 2*n : 2*n],
		Lambda: state[2*n : 2*n+np : 2*n+np], gamma: state[2*n+np:]}
	c.reset()
	return c
}

// reset puts the controller in its cold state: base step sizes, and each
// latency the fair split of its resource.
func (c *Controller) reset() {
	p, ti := c.p, c.ti
	for pi := range c.gamma {
		c.gamma[pi] = c.step.Gamma
	}
	lo := p.subOff[ti]
	for si := range c.LatMs {
		g := lo + int32(si)
		r := &p.Resources[p.res[g]]
		fair := r.Availability / float64(len(r.Subs))
		c.LatMs[si] = clamp(p.Share(ti, si).LatencyFor(fair), p.latMin[g], p.latMax[g])
	}
	p.sharesInto(c.shares, ti, c.LatMs, true)
}

// pathPriceSum is Λ_s = Σ_{p∋s} λ_p for subtask si of a task with path
// prices lambda: the paths through it are through[toff[si]:toff[si+1]].
// Every subtask lies on a path (task.Validate), so on a one-path task Λ_s is
// that path's price and the index is not read.
func pathPriceSum(lambda []float64, through, toff []int32, si int) float64 {
	sum := 0.0
	if len(lambda) == 1 {
		return sum + lambda[0]
	}
	for _, pi := range through[toff[si]:toff[si+1]] {
		sum += lambda[pi]
	}
	return sum
}

// stationary solves Equation 7 for one subtask — resource price mu, net
// downward pressure denom = Λ_s − w_s·f'(L), share model (cost, errMs) —
// and clamps the result to the subtask's admissible interval [lo, hi].
func stationary(mu, denom, cost, errMs, lo, hi float64) float64 {
	var lat float64
	switch {
	case mu <= 0:
		// Free resource: the stationarity pressure is all downward; take the
		// most share the resource allows.
		lat = lo
	case denom <= 1e-12:
		// No downward pressure from utility or deadlines: release the
		// resource entirely.
		lat = hi
	default:
		lat = errMs + safeSqrt(mu*cost/denom)
	}
	return clamp(lat, lo, hi)
}

// latenciesAt solves Equation 7 for every subtask of task ti at utility
// slope slope, path prices lambda and resource prices mu, writes the
// latencies into lat and returns their aggregate Σ w_s·lat_s.
func (p *Problem) latenciesAt(ti int, lat, lambda, mu []float64, slope float64) float64 {
	lo, hi := p.subOff[ti], p.subOff[ti+1]
	res, weight, cost, errMs := p.res[lo:hi], p.weight[lo:hi], p.cost[lo:hi], p.errMs[lo:hi]
	latMin, latMax := p.latMin[lo:hi], p.latMax[lo:hi]
	toff, through := p.throughOff[lo:hi+1], p.through
	agg := 0.0
	for si := range lat {
		v := stationary(mu[res[si]], pathPriceSum(lambda, through, toff, si)-weight[si]*slope, cost[si], errMs[si], latMin[si], latMax[si])
		lat[si] = v
		agg += weight[si] * v
	}
	return agg
}

// Solve is the controller half of one LLA iteration, in one pass over the
// task's slice of the problem arrays (DESIGN.md §6). Given the resource
// prices mu and the congestion flags congested (both indexed like
// Problem.Resources; congested may be nil), it
//
//   - steps every path price by gradient projection (Equation 9) from the
//     latencies it entered with. Per Section 5.2 the path's step size ramps
//     while the path is over its critical time or crosses a congested
//     resource. The path latency responds to lambda as
//     d(Σlat)/dλ ≈ −Σlat/(2(λ + w·|f'|)), so contraction requires
//     gamma < 4(λ_p + w_min·|f'|): the effective step is clamped at twice
//     that price scale, floored at the base step;
//   - solves the stationarity condition (Equation 7)
//     ∂U/∂lat_s − Σ_{p∋s} λ_p − μ_r·∂share/∂lat_s = 0 for every subtask:
//     with share = (c+l)/(lat−e), lat_s = e + sqrt(μ_r (c+l)/(Λ_s − w_s·f'(L)))
//     clamped to the admissible interval. A constant-slope task never
//     computes the aggregate L and takes one round, detecting change as it
//     writes; otherwise f'(L) moves with L, and L is the bracketed root of
//     the aggregate the slope f'(L) produces;
//   - re-evaluates the share of each subtask whose latency moved (flagged).
//
// priceChanged reports whether a path price or step size moved and
// latChanged whether a latency did, bitwise against the state at entry. The
// step sizes are the policy's entire state, so a Solve that reports neither
// would be absorbed identically on replay — what lets Engine.Step skip it.
func (c *Controller) Solve(mu []float64, congested []bool) (priceChanged, latChanged bool) {
	// Hoisted into locals: the stores below would otherwise force slice
	// headers and constants to be re-read from c and p on every iteration.
	p, ti, step := c.p, c.ti, c.step
	lat, lambda, gammas, shares := c.LatMs, c.Lambda, c.gamma, c.shares
	lo, hi := p.subOff[ti], p.subOff[ti+1]
	k := p.consts[ti]
	res := p.res[lo:hi]
	agg, slope := 0.0, k.slope
	if !k.constSlope {
		agg = p.aggregate(ti, lat)
		slope = p.Tasks[ti].Curve.Slope(agg)
	}

	gp := p.pathOff[ti]
	pathSubOff, pathSub, wMin := p.pathSubOff, p.pathSub, p.wMin
	for pi, l := range lambda {
		sum := 0.0
		pathCongested := false
		for _, s := range pathSub[pathSubOff[gp]:pathSubOff[gp+1]] {
			sum += lat[s]
			if congested != nil && congested[res[s]] {
				pathCongested = true
			}
		}
		if sum > k.criticalMs*(1+CongestionMargin) {
			pathCongested = true
		}
		gamma := gammas[pi]
		if step.Adaptive {
			gamma = price.Ramp(gamma, step.Gamma, pathCongested)
		}
		if gamma != gammas[pi] {
			gammas[pi] = gamma
			priceChanged = true
		}
		scale := l + wMin[gp]*math.Abs(slope)
		if step.Adaptive && gamma < scale/2 {
			gamma = scale / 2
		}
		if cap := max(step.Gamma, 2*scale); gamma > cap {
			gamma = cap
		}
		if next := price.UpdatePath(l, gamma, sum, k.criticalMs); next != l {
			lambda[pi] = next
			priceChanged = true
		}
		gp++
	}

	weight, cost, errMs := p.weight[lo:hi], p.cost[lo:hi], p.errMs[lo:hi]
	latMin, latMax := p.latMin[lo:hi], p.latMax[lo:hi]
	toff, through := p.throughOff[lo:hi+1], p.through

	if k.constSlope {
		for si := range lat {
			v := stationary(mu[res[si]], pathPriceSum(lambda, through, toff, si)-weight[si]*slope, cost[si], errMs[si], latMin[si], latMax[si])
			if v != lat[si] {
				lat[si] = v
				shares[si] = flagged(cost[si]/share.Budget(v, errMs[si]), v, latMin[si], latMax[si])
				latChanged = true
			}
		}
		return priceChanged, latChanged
	}

	// The shares hold the entry latencies until rewritten below. One pass at
	// the entry slope stands if it reproduces its aggregate (or slope);
	// otherwise the aggregate is the root of g(a) − a, g(a) the aggregate
	// solved at f'(a). A concave curve's |f'| grows with a and each latency
	// shrinks as |f'| grows, so g is non-increasing: the root is unique,
	// between agg and next = g(agg), and bisection to exhaustion finds it.
	copy(shares, lat)
	curve := p.Tasks[ti].Curve
	if next := p.latenciesAt(ti, lat, lambda, mu, slope); math.Abs(next-agg) >= 1e-9*(1+math.Abs(agg)) && curve.Slope(next) != slope {
		a, b := min(agg, next), max(agg, next)
		for m := a + (b-a)/2; a < m && m < b; m = a + (b-a)/2 {
			g := p.latenciesAt(ti, lat, lambda, mu, curve.Slope(m))
			if g == m {
				break
			}
			if g > m {
				a = m
			} else {
				b = m
			}
		}
	}
	for si, v := range lat {
		if v != shares[si] {
			latChanged = true
		}
		shares[si] = flagged(cost[si]/share.Budget(v, errMs[si]), v, latMin[si], latMax[si])
	}
	return priceChanged, latChanged
}

// Utility returns the task's utility at the current latencies.
func (c *Controller) Utility() float64 {
	return c.p.Tasks[c.ti].Curve.Value(c.p.aggregate(c.ti, c.LatMs))
}

// CriticalPathMs returns the longest path latency under the current
// assignment and the index of that path.
func (c *Controller) CriticalPathMs() (float64, int) {
	return c.p.criticalPath(c.ti, c.LatMs)
}

// ClampDeadlineSafe pulls the current latencies toward their lower bounds
// until every path meets its critical-time constraint (Equation 4), and
// returns the worst remaining relative violation — 0 unless the workload is
// degenerate (a path's minimum latencies already exceed the critical time).
// The distributed runtimes call it while operating on stale prices: a
// degraded allocation may be suboptimal, but it must never break a deadline.
// Shrinking a latency only lowers the sums of the other paths through the
// same subtask, so a single pass over the paths suffices.
func (c *Controller) ClampDeadlineSafe() float64 {
	p, pt := c.p, &c.p.Tasks[c.ti]
	np := p.NumPaths(c.ti)
	for pi := 0; pi < np; pi++ {
		path := p.Path(c.ti, pi)
		sum, minSum := 0.0, 0.0
		for _, s := range path {
			sum += c.LatMs[s]
			minSum += pt.LatMinMs[s]
		}
		if sum <= pt.CriticalMs {
			continue
		}
		// Scale every subtask's slack above its floor by the common factor
		// that lands the path exactly on the critical time.
		f := 0.0
		if sum > minSum {
			f = (pt.CriticalMs - minSum) / (sum - minSum)
		}
		if f < 0 {
			f = 0
		}
		for _, s := range path {
			if nl := pt.LatMinMs[s] + (c.LatMs[s]-pt.LatMinMs[s])*f; nl < c.LatMs[s] {
				c.LatMs[s] = nl
			}
		}
	}
	p.sharesInto(c.shares, c.ti, c.LatMs, true)
	longest, _ := c.CriticalPathMs()
	if v := (longest - pt.CriticalMs) / pt.CriticalMs; v > 0 {
		return v
	}
	return 0
}

// ResetPrices zeroes the path prices and resets their step sizes; used
// after structural workload changes.
func (c *Controller) ResetPrices() {
	for pi := range c.Lambda {
		c.Lambda[pi] = 0
		c.gamma[pi] = c.step.Gamma
	}
}

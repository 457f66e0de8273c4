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
	// resource prices. newton selects newtonPath's step where it holds.
	step   StepPolicy
	newton bool
}

// NewController builds the controller for task ti with latencies initialized
// to a fair share split of each subtask's resource (every subtask on a
// resource starts with an equal fraction of its availability). cfg must
// have been through Config.WithDefaults.
func NewController(p *Problem, ti int, cfg Config) *Controller {
	n, np := int(p.subOff[ti+1]-p.subOff[ti]), p.NumPaths(ti)
	state := make([]float64, 2*n+2*np)
	c := &Controller{p: p, ti: ti, step: cfg.Step, newton: cfg.PriceSolver == price.SolverNewton,
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
	p.sharesInto(c.shares, ti, c.LatMs)
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

// stepPaths takes Solve's path-price step from the latencies lat at utility
// slope slope and reports whether it moved a path price or step size. Under
// Newton it leaves a path newtonPath holds for to newtonPaths, reporting in
// newton one that has or would take a price; with commit false (runShard's
// replay test) it writes nothing and counts that step as a move.
func (c *Controller) stepPaths(lat []float64, congested []bool, slope float64, commit bool) (moved, newton bool) {
	p, ti, step := c.p, c.ti, c.step
	lambda, gammas := c.Lambda, c.gamma
	k, res := p.consts[ti], p.res[p.subOff[ti]:p.subOff[ti+1]]
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
		ramped := gammas[pi]
		if step.Adaptive {
			ramped = price.Ramp(ramped, step.Gamma, pathCongested)
		}
		next, ok := l, false
		if c.newton {
			next, ok = c.newtonPath(lat, gp, l, sum, slope)
			newton = newton || ok && (l > 0 || next > 0)
			if ok && commit {
				next = l
			}
		}
		if !ok {
			gamma, scale := ramped, l+wMin[gp]*math.Abs(slope)
			if step.Adaptive && gamma < scale/2 {
				gamma = scale / 2
			}
			if cap := max(step.Gamma, 2*scale); gamma > cap {
				gamma = cap
			}
			next = price.UpdatePath(l, gamma, sum, k.criticalMs)
		}
		moved = moved || ramped != gammas[pi] || next != l
		if commit {
			gammas[pi], lambda[pi] = ramped, next
		}
		gp++
	}
	return moved, newton
}

// newtonPaths takes newtonPath's step at the resource prices mu, solving the
// latencies into lat: path by path, each path that moves re-solving them
// before the next reads them (so paths sharing subtasks do not each close
// the same gap), for up to 4 passes until one moves no price. It reports
// whether a price moved.
func (c *Controller) newtonPaths(lat, mu []float64, slope float64) (moved bool) {
	p := c.p
	p.latenciesAt(c.ti, lat, c.Lambda, mu, slope)
	for pass, again := 0, true; again && pass < 4; pass++ {
		again = false
		for pi := range c.Lambda {
			gp := p.pathOff[c.ti] + int32(pi)
			sum := 0.0
			for _, s := range p.pathSub[p.pathSubOff[gp]:p.pathSubOff[gp+1]] {
				sum += lat[s]
			}
			if next, ok := c.newtonPath(lat, gp, c.Lambda[pi], sum, slope); ok && next != c.Lambda[pi] {
				c.Lambda[pi], again = next, true
				p.latenciesAt(c.ti, lat, c.Lambda, mu, slope)
			}
		}
		moved = moved || again
	}
	return moved
}

// newtonPath is path gp's Newton step from the latencies lat, its price l
// and latency sum: price.Dynamics' power-law step, on the price scale x =
// λ + w_min·|f'|. Its interior subtasks less their error terms (free)
// respond as lat − e = sqrt(μ·k/denom), so −∂free/∂λ = Σ free_s/(2·denom_s),
// and x moves to where free meets C less the rest (fixed). ok is false —
// Equation 9 — with no interior subtask, no price scale or fixed ≥ C. A
// zero price with slack, or a sum within the rounding band, stays.
func (c *Controller) newtonPath(lat []float64, gp int32, l, sum, slope float64) (next float64, ok bool) {
	p, lo := c.p, c.p.subOff[c.ti]
	crit := p.consts[c.ti].criticalMs
	if l == 0 && sum <= crit || price.InBand(sum, crit) {
		return l, true
	}
	toff := p.throughOff[lo:]
	fixed, free, resp := 0.0, 0.0, 0.0
	for _, s := range p.pathSub[p.pathSubOff[gp]:p.pathSubOff[gp+1]] {
		g := lo + s
		if !interior(lat[s], p.latMin[g], p.latMax[g]) {
			fixed += lat[s]
			continue
		}
		f := lat[s] - p.errMs[g]
		fixed, free = fixed+p.errMs[g], free+f
		resp += f / (pathPriceSum(c.Lambda, p.through, toff, int(s)) - p.weight[g]*slope)
	}
	floor := p.wMin[gp] * math.Abs(slope)
	x := l + floor
	if crit <= fixed || resp <= 0 || x <= 0 {
		return l, false
	}
	return clamp(price.PowerStep(x, free, crit-fixed, 2*free/(x*resp))-floor, 0, price.MaxPrice), true
}

// Solve is the controller half of one LLA iteration, in one pass over the
// task's slice of the problem arrays (DESIGN.md §6). Given the resource
// prices mu and the congestion flags congested (both indexed like
// Problem.Resources; congested may be nil), it
//
//   - steps every path price from the latencies it entered with, by
//     gradient projection (Equation 9). Per Section 5.2 the path's step size
//     ramps while the path is over its critical time or crosses a congested
//     resource. The path latency responds to lambda as
//     d(Σlat)/dλ ≈ −Σlat/(2(λ + w·|f'|)), so contraction requires
//     gamma < 4(λ_p + w_min·|f'|): the effective step is clamped at twice
//     that price scale, floored at the base step. Under Newton a path takes
//     newtonPath's step where it holds instead, at mu (newtonPaths);
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
	p, ti := c.p, c.ti
	lat, lambda, shares := c.LatMs, c.Lambda, c.shares
	lo, hi := p.subOff[ti], p.subOff[ti+1]
	k := p.consts[ti]
	res := p.res[lo:hi]
	agg, slope := 0.0, k.slope
	if !k.constSlope {
		agg = p.aggregate(ti, lat)
		slope = p.curves[ti].Slope(agg)
	}
	priceChanged, rewrite := c.stepPaths(lat, congested, slope, true)
	if rewrite { // Newton's path steps solve in the share cache
		priceChanged = c.newtonPaths(shares, mu, slope) || priceChanged
	}

	weight, cost, errMs := p.weight[lo:hi], p.cost[lo:hi], p.errMs[lo:hi]
	latMin, latMax := p.latMin[lo:hi], p.latMax[lo:hi]
	toff, through := p.throughOff[lo:hi+1], p.through

	if k.constSlope {
		for si := range lat {
			v := stationary(mu[res[si]], pathPriceSum(lambda, through, toff, si)-weight[si]*slope, cost[si], errMs[si], latMin[si], latMax[si])
			if v != lat[si] || rewrite {
				latChanged = latChanged || v != lat[si]
				lat[si] = v
				shares[si] = flagged(cost[si]/share.Budget(v, errMs[si]), v, latMin[si], latMax[si])
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
	curve := p.curves[ti]
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
	return c.p.curves[c.ti].Value(c.p.aggregate(c.ti, c.LatMs))
}

package core

import (
	"math"

	"lla/internal/price"
)

// Controller is the task controller of Section 4.1: it owns one task's path
// prices and latencies, and — given the current resource prices — performs
// the latency-allocation step of Section 4.2. Controllers are deliberately
// self-contained message-driven state machines so the same code runs inside
// the synchronous Engine and the distributed runtime.
type Controller struct {
	p  *Problem
	ti int

	// LatMs[s] is the controller's current latency assignment.
	LatMs []float64
	// Lambda[pi] is the price of path pi (the Lagrange multiplier of its
	// critical-time constraint).
	Lambda []float64
	// pathStep[pi] sizes the gradient step of path pi's price.
	pathStep []price.StepSizer

	// latPrev is the AllocateLatencies change-detection scratch (the entry
	// latencies, compared bitwise against the exit latencies).
	latPrev []float64

	// maxInner bounds the fixed-point iterations used for curves with
	// non-constant slope.
	maxInner int
	// baseGamma floors the path-step stability clamp.
	baseGamma float64
	// priceScaled (adaptive mode) floors the effective path step at half
	// the local price scale, mirroring ResourceAgent's treatment.
	priceScaled bool
}

// NewController builds the controller for task ti with latencies initialized
// to a fair share split of each subtask's resource (every subtask on a
// resource starts with an equal fraction of its availability).
func NewController(p *Problem, ti int, newStep func() price.StepSizer, baseGamma float64, priceScaled bool, maxInner int) *Controller {
	n, np := len(p.Tasks[ti].Res), len(p.Tasks[ti].Paths)
	c := &Controller{LatMs: make([]float64, n), latPrev: make([]float64, n),
		Lambda: make([]float64, np), pathStep: make([]price.StepSizer, np)}
	return c.init(p, ti, newStep, baseGamma, priceScaled, maxInner)
}

// init finishes a controller whose state slices are already sized (the
// engine carves them from flat arrays) and returns it.
func (c *Controller) init(p *Problem, ti int, newStep func() price.StepSizer, baseGamma float64, priceScaled bool, maxInner int) *Controller {
	pt := &p.Tasks[ti]
	c.p, c.ti = p, ti
	c.maxInner, c.baseGamma, c.priceScaled = maxInner, baseGamma, priceScaled
	if c.maxInner <= 0 {
		c.maxInner = 30
	}
	for pi := range c.pathStep {
		c.pathStep[pi] = newStep()
	}
	for si := range c.LatMs {
		r := p.Resources[pt.Res[si]]
		fair := r.Availability / float64(len(r.Subs))
		c.LatMs[si] = clamp(pt.Share[si].LatencyFor(fair), pt.LatMinMs[si], pt.LatMaxMs[si])
	}
	return c
}

// UpdatePathPrices performs the path-price half of price computation
// (Equation 9) using the controller's current latencies, and feeds each
// path's step sizer. congestedRes marks resources whose capacity constraint
// is currently violated: per the paper's adaptive heuristic (Section 5.2),
// a path's step size is ramped while any resource it traverses is congested.
// The effective step is clamped to the path analog of the resource-price
// stability bound: the path latency responds to lambda as
// d(Σlat)/dλ ≈ −Σlat / (2(λ + w·|f'|)), so contraction requires
// gamma < 4(λ_p + w_min·|f'|); we clamp at twice the price scale, floored at
// the base step.
//
// It reports whether the call moved any controller state: a path price, or
// a step sizer's size. Engine.Step skips a re-solve only when a
// previous identical-input call reported no change, so the comparison is
// bitwise and the sizer check relies on Gamma() being the sizer's entire
// observable state (true of both price.Fixed and price.Adaptive — Observe
// with an unchanged Gamma is a no-op that would absorb identically on
// replay).
func (c *Controller) UpdatePathPrices(congestedRes []bool) bool {
	pt := &c.p.Tasks[c.ti]
	slope := pt.Curve.Slope(c.aggregate())
	changed := false
	for pi, path := range pt.Paths {
		sum := 0.0
		pathCongested := false
		wMin := math.Inf(1)
		for _, s := range path {
			sum += c.LatMs[s]
			if congestedRes != nil && congestedRes[pt.Res[s]] {
				pathCongested = true
			}
			if w := pt.Weights[s]; w < wMin {
				wMin = w
			}
		}
		if sum > pt.CriticalMs*(1+CongestionMargin) {
			pathCongested = true
		}
		g0 := c.pathStep[pi].Gamma()
		c.pathStep[pi].Observe(pathCongested)
		gamma := c.pathStep[pi].Gamma()
		if gamma != g0 {
			changed = true
		}
		scale := c.Lambda[pi] + wMin*math.Abs(slope)
		if c.priceScaled && gamma < scale/2 {
			gamma = scale / 2
		}
		if cap := math.Max(c.baseGamma, 2*scale); gamma > cap {
			gamma = cap
		}
		if next := price.UpdatePath(c.Lambda[pi], gamma, sum, pt.CriticalMs); next != c.Lambda[pi] {
			c.Lambda[pi] = next
			changed = true
		}
	}
	return changed
}

// AllocateLatencies performs the latency-allocation step (Section 4.2):
// given the resource prices mu (indexed like Problem.Resources), it solves
// the stationarity condition (Equation 7)
//
//	∂U/∂lat_s − Σ_{p∋s} λ_p − μ_r · ∂share/∂lat_s = 0
//
// for every subtask. With share = (c+l)/(lat−e) this gives the closed form
//
//	lat_s = e + sqrt( μ_r (c+l) / (Λ_s − w_s · f'(L)) ),
//
// clamped to the subtask's admissible interval. For curves with
// non-constant slope f'(L) depends on the aggregate L, so the controller
// fixed-points on L until L or the slope stops moving (converges
// monotonically for concave curves; constant-slope curves exit after one
// inner round).
//
// It reports whether any latency changed bitwise — the trigger for
// re-evaluating the task's shares and for marking its resources dirty in
// Engine.Step.
func (c *Controller) AllocateLatencies(mu []float64) bool {
	copy(c.latPrev, c.LatMs)
	pt := &c.p.Tasks[c.ti]
	agg := c.aggregate()
	slope := pt.Curve.Slope(agg)
	for inner := 0; inner < c.maxInner; inner++ {
		for si := range c.LatMs {
			lambdaSum := 0.0
			for _, pi := range pt.PathsThrough[si] {
				lambdaSum += c.Lambda[pi]
			}
			denom := lambdaSum - pt.Weights[si]*slope
			muR := mu[pt.Res[si]]
			var lat float64
			switch {
			case muR <= 0:
				// Free resource: the stationarity pressure is all downward;
				// take the most share the resource allows.
				lat = pt.LatMinMs[si]
			case denom <= 1e-12:
				// No downward pressure from utility or deadlines: release
				// the resource entirely.
				lat = pt.LatMaxMs[si]
			default:
				sf := pt.Share[si]
				lat = sf.ErrMs + safeSqrt(muR*(sf.ExecMs+sf.LagMs)/denom)
			}
			c.LatMs[si] = clamp(lat, pt.LatMinMs[si], pt.LatMaxMs[si])
		}
		next := c.aggregate()
		if math.Abs(next-agg) < 1e-9*(1+math.Abs(agg)) {
			break
		}
		// The slope is the only input that varies between rounds: one that
		// comes back bitwise unchanged (always, for a constant-slope curve)
		// would make the next round reproduce these latencies and then exit.
		nextSlope := pt.Curve.Slope(next)
		if nextSlope == slope {
			break
		}
		agg, slope = next, nextSlope
	}
	for si, lat := range c.LatMs {
		if lat != c.latPrev[si] {
			return true
		}
	}
	return false
}

// ResponseSlope returns subtask si's demand response −∂share/∂μ at the
// controller's current latency — the cheap local Hessian estimate the
// fixed-point solve already implies (see Problem.ResponseSlope for the
// closed form). The engine and the distributed resource nodes sum it per
// resource as the curvature input of the DiagonalNewton price dynamics.
func (c *Controller) ResponseSlope(si int, mu float64) float64 {
	return c.p.ResponseSlope(c.ti, si, c.LatMs[si], mu)
}

// aggregate returns the weighted latency sum Σ w_s · lat_s.
func (c *Controller) aggregate() float64 {
	pt := &c.p.Tasks[c.ti]
	sum := 0.0
	for si, w := range pt.Weights {
		sum += w * c.LatMs[si]
	}
	return sum
}

// Utility returns the task's utility at the current latencies.
func (c *Controller) Utility() float64 {
	return c.p.Tasks[c.ti].Curve.Value(c.aggregate())
}

// CriticalPathMs returns the longest path latency under the current
// assignment and the index of that path.
func (c *Controller) CriticalPathMs() (float64, int) {
	pt := &c.p.Tasks[c.ti]
	best, bestIdx := 0.0, -1
	for pi, path := range pt.Paths {
		sum := 0.0
		for _, s := range path {
			sum += c.LatMs[s]
		}
		if bestIdx < 0 || sum > best {
			best, bestIdx = sum, pi
		}
	}
	return best, bestIdx
}

// Shares returns the per-subtask resource shares implied by the current
// latencies.
func (c *Controller) Shares() []float64 {
	out := make([]float64, len(c.LatMs))
	c.SharesInto(out)
	return out
}

// SharesInto writes the per-subtask resource shares implied by the current
// latencies into dst (len >= len(LatMs)). The engine's hot path and
// SnapshotInto use it to keep steady-state iterations allocation-free.
func (c *Controller) SharesInto(dst []float64) {
	pt := &c.p.Tasks[c.ti]
	for si, lat := range c.LatMs {
		dst[si] = pt.Share[si].Share(lat)
	}
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
	pt := &c.p.Tasks[c.ti]
	for _, path := range pt.Paths {
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
	worst := 0.0
	for _, path := range pt.Paths {
		sum := 0.0
		for _, s := range path {
			sum += c.LatMs[s]
		}
		if v := (sum - pt.CriticalMs) / pt.CriticalMs; v > worst {
			worst = v
		}
	}
	return worst
}

// ResetPrices zeroes the path prices and resets their step sizers; used
// after structural workload changes.
func (c *Controller) ResetPrices() {
	for pi := range c.Lambda {
		c.Lambda[pi] = 0
		c.pathStep[pi].Reset()
	}
}

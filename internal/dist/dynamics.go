package dist

import (
	"lla/internal/core"
	"lla/internal/price"
)

// Accelerated price dynamics in the distributed runtimes (DESIGN.md §12).
// Every price.Dynamics implementation is coordinate-separable, so a resource
// node runs its own 1-coordinate instance: the vector update the engine
// performs over all resources decomposes into exactly the per-resource
// updates the nodes perform, and a loss-free synchronous run stays bitwise
// identical to the engine under every solver — the property the dist tests
// pin for the reference gradient extends to the accelerated solvers.

// resourcePrice is a resource node's price computer (Section 4.3): it takes
// the total share demanded on its resource and moves the price mu by the
// configured dynamics — the reference gradient projection (Equation 8,
// price.GradStep, the engine's own per-resource step) or, for an accelerated
// config, a 1-coordinate price.Dynamics.
type resourcePrice struct {
	r    *core.ProblemResource
	mu   float64
	grad price.GradStep
	// dyn is nil under the reference gradient solver, mirroring the engine's
	// dyn == nil path. The arrays are its fixed-size StepInput scratch, so
	// the per-round update does not allocate.
	dyn                  price.Dynamics
	in, sum, avail, curv [1]float64
	cong                 [1]bool
}

func newResourcePrice(p *core.Problem, ri int, cfg core.Config) *resourcePrice {
	a := &resourcePrice{r: &p.Resources[ri], mu: cfg.InitialMu, grad: cfg.NewGradStep()}
	if cfg.Accelerated() {
		a.dyn = cfg.NewDynamics()
		a.dyn.Reset(1)
	}
	return a
}

// update advances the price one round from the demand sum. The curvature
// (when the solver needs it) is summed over the resource's subtasks in
// compiled order from the freshest reported latencies (lat, by global
// subtask index) — the same serial order and inputs as the engine's, which
// is what keeps the trajectories bitwise identical. It reports whether any observable state moved — the
// price or a step size — the fixed-point signal the async sparse path uses.
func (a *resourcePrice) update(p *core.Problem, lat map[int32]float64, sum float64) bool {
	cong := a.r.Congested(sum)
	if a.dyn == nil {
		var changed bool
		a.mu, changed = a.grad.Update(a.mu, a.r.Availability, sum, cong)
		return changed
	}
	a.in[0], a.sum[0], a.avail[0], a.cong[0] = a.mu, sum, a.r.Availability, cong
	if a.dyn.NeedsCurvature() {
		c := 0.0
		for _, sub := range a.r.Subs {
			c += p.ResponseSlope(sub, lat[sub], a.mu)
		}
		a.curv[0] = c
	}
	changed := a.dyn.Step(price.StepInput{
		Mu:        a.in[:],
		ShareSums: a.sum[:],
		Avail:     a.avail[:],
		Congested: a.cong[:],
		Curvature: a.curv[:],
	})
	a.mu = a.in[0]
	return changed
}

// fallbacks returns the cumulative safeguard-fallback count.
func (a *resourcePrice) fallbacks() uint64 {
	if a.dyn == nil {
		return 0
	}
	return a.dyn.Fallbacks()
}

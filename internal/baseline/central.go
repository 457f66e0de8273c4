package baseline

import (
	"math"

	"lla/internal/core"
	"lla/internal/task"
	"lla/internal/workload"
)

// CentralConfig parametrizes the centralized solver.
type CentralConfig struct {
	// WeightMode selects the utility variant (default path-weighted).
	WeightMode task.WeightMode
	// Rounds is the number of multiplier-update rounds (default 150).
	Rounds int
	// StepsPerRound is the number of inner gradient steps per round
	// (default 300).
	StepsPerRound int
	// Rho is the augmented-Lagrangian penalty weight (default 100).
	Rho float64
	// Step is the inner projected-gradient step size (default 0.02).
	Step float64
}

func (c CentralConfig) withDefaults() CentralConfig {
	if c.WeightMode == 0 {
		c.WeightMode = task.WeightPathNormalized
	}
	if c.Rounds == 0 {
		c.Rounds = 150
	}
	if c.StepsPerRound == 0 {
		c.StepsPerRound = 300
	}
	if c.Rho == 0 {
		c.Rho = 100
	}
	if c.Step == 0 {
		c.Step = 0.02
	}
	return c
}

// Central solves the latency-assignment problem with a centralized
// augmented-Lagrangian (method of multipliers): inner projected-gradient
// ascent on
//
//	Σ_i U_i(lat) − Σ_j (1/2ρ)·(max(0, m_j + ρ·g_j(lat))² − m_j²)
//
// over both constraint families (g_r = Σshare − B_r for resources,
// g_p = (Σlat − C)/C for paths), with the multiplier estimates m_j updated
// between rounds as m_j ← max(0, m_j + ρ·g_j). Unlike a pure penalty method
// this satisfies the constraints exactly at a moderate ρ. It is deliberately
// a different algorithm from LLA (primal, centralized, global view); the
// test suite uses it to cross-validate the distributed optimizer's optimum
// and the benchmark harness reports it as the "centralized reference".
func Central(w *workload.Workload, cfg CentralConfig) (*Assignment, *Evaluation, error) {
	cfg = cfg.withDefaults()
	p, err := core.Compile(w, cfg.WeightMode)
	if err != nil {
		return nil, nil, err
	}

	// Start from even slicing, projected into the admissible boxes.
	start, err := EvenSlice(w)
	if err != nil {
		return nil, nil, err
	}
	lat := make([][]float64, len(p.Tasks))
	for ti := range p.Tasks {
		pt := &p.Tasks[ti]
		lat[ti] = make([]float64, len(pt.Res))
		for si := range lat[ti] {
			lat[ti][si] = clampf(start.LatMs[ti][si], pt.LatMinMs[si], pt.LatMaxMs[si])
		}
	}

	muHat := make([]float64, len(p.Resources))
	lamHat := make([][]float64, len(p.Tasks))
	for ti := range p.Tasks {
		lamHat[ti] = make([]float64, p.NumPaths(ti))
	}
	rho := cfg.Rho

	resViol := func(ri int) float64 {
		sum := 0.0
		for _, g := range p.Resources[ri].Subs {
			ti, si := p.SubtaskAt(g)
			sum += p.Share(ti, si).Share(lat[ti][si])
		}
		return sum - p.Resources[ri].Availability
	}
	pathViol := func(ti, pi int) float64 {
		pt := &p.Tasks[ti]
		sum := 0.0
		for _, s := range p.Path(ti, pi) {
			sum += lat[ti][s]
		}
		return (sum - pt.CriticalMs) / pt.CriticalMs
	}

	for round := 0; round < cfg.Rounds; round++ {
		for it := 0; it < cfg.StepsPerRound; it++ {
			// Effective multipliers max(0, m + rho*g) at the current point.
			muEff := make([]float64, len(p.Resources))
			for ri := range p.Resources {
				muEff[ri] = math.Max(0, muHat[ri]+rho*resViol(ri))
			}
			moved := 0.0
			for ti := range p.Tasks {
				pt := &p.Tasks[ti]
				agg := 0.0
				for si, wgt := range pt.Weights {
					agg += wgt * lat[ti][si]
				}
				slope := pt.Curve.Slope(agg)
				lamEff := make([]float64, p.NumPaths(ti))
				for pi := range lamEff {
					lamEff[pi] = math.Max(0, lamHat[ti][pi]+rho*pathViol(ti, pi))
				}
				for si := range lat[ti] {
					g := pt.Weights[si] * slope
					g -= muEff[pt.Res[si]] * p.Share(ti, si).Deriv(lat[ti][si])
					for _, pi := range p.PathsThrough(ti, si) {
						g -= lamEff[pi] / pt.CriticalMs
					}
					next := clampf(lat[ti][si]+cfg.Step*g, pt.LatMinMs[si], pt.LatMaxMs[si])
					moved += math.Abs(next - lat[ti][si])
					lat[ti][si] = next
				}
			}
			if moved < 1e-12 {
				break
			}
		}
		// Multiplier updates.
		for ri := range muHat {
			muHat[ri] = math.Max(0, muHat[ri]+rho*resViol(ri))
		}
		for ti := range lamHat {
			for pi := range lamHat[ti] {
				lamHat[ti][pi] = math.Max(0, lamHat[ti][pi]+rho*pathViol(ti, pi))
			}
		}
	}

	a := &Assignment{Name: "centralized", LatMs: lat}
	ev, err := Evaluate(w, a, cfg.WeightMode)
	if err != nil {
		return nil, nil, err
	}
	return a, ev, nil
}

// clampf bounds v to [lo, hi].
func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

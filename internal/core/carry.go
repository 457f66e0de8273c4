package core

import (
	"math"
	"slices"

	"lla/internal/task"
)

// State carry-over between engines: the warm-start primitive behind a
// workload swap (Engine.Adopt, admission's trial) and the fleet's
// incremental repartitioning (fleet.ReplaceWorkload). A freshly built engine
// adopts as much of one or more donor engines' optimization state as still
// applies — resource prices by ID, surviving tasks' latencies and path
// prices by name — so re-convergence after churn starts from the
// already-discovered congestion landscape instead of the paper's cold
// initial point.

// CarryFrom warm-starts the engine from the donors' live state:
//
//   - every resource whose ID appears in a donor adopts that donor's current
//     price;
//   - every task whose name appears in a donor with identical structure
//     (same subtask names in order, same path count) adopts that donor's
//     latencies and path prices, re-clamped into the receiver's (possibly
//     changed) bounds.
//
// Donors are consulted in argument order and the first match wins, so the
// result is a pure function of (receiver, donor list) — deterministic for
// the fleet's bitwise guarantees. Anything unmatched keeps the receiver's
// cold-start value. The receiver's resource caches are refreshed at the end;
// donors are read-only throughout and must stay alive (not Closed-and-
// overwritten) until the call returns. Pins are deliberately not carried —
// they are session state owned by whoever pinned them (see pin.go).
func (e *Engine) CarryFrom(donors ...*Engine) {
	muDone := make([]bool, len(e.p.Resources))
	taskDone := make([]bool, e.p.NumTasks())
	for _, d := range donors {
		d.carryInto(e, muDone, taskDone)
	}
	e.refreshResourceState() // invalidates the dynamics' history too
	e.mu = e.mu[:0]          // no demand was solved at the carried prices
}

// carryInto copies d's prices and task state into e where IDs/names match
// and the slot has not been filled by an earlier donor.
func (d *Engine) carryInto(e *Engine, muDone, taskDone []bool) {
	for ri := range e.p.Resources {
		if muDone[ri] {
			continue
		}
		if oi, ok := d.p.resIdx[e.p.Resources[ri].ID]; ok {
			e.price[ri] = d.price[oi]
			muDone[ri] = true
		}
	}

	p, tasks, donorTasks := e.p, e.p.src.Tasks, d.p.src.Tasks
	for ti, t := range tasks {
		if taskDone[ti] {
			continue
		}
		oi, ok := d.p.TaskIndex(t.Name)
		if !ok {
			continue
		}
		if !slices.EqualFunc(donorTasks[oi].Subtasks, t.Subtasks, sameName) || d.p.NumPaths(oi) != p.NumPaths(ti) {
			continue // structure changed: start this task fresh
		}
		from, to := d.Controller(oi), e.Controller(ti)
		copy(to.Lambda, from.Lambda)
		// Re-clamp carried latencies into the (possibly changed) bounds.
		for si, lat := range from.LatMs {
			g := p.subOff[ti] + int32(si)
			to.LatMs[si] = clamp(lat, p.latMin[g], p.latMax[g])
		}
		taskDone[ti] = true
	}
}

// sameName reports whether two subtasks have one name.
func sameName(a, b task.Subtask) bool { return a.Name == b.Name }

// PriceRoots returns, per resource r, the root sum Σ_s √(c_s·w_s·|f_i'(L_i)|)
// over its subtasks at the engine's current latencies, in compiled order:
// c_s the share numerator, w_s the weight and f_i'(L_i) the slope of the
// subtask's task at its aggregate. With every path price at zero and every
// latency interior, Equation 7 gives subtask s the share √(c_s·w_s·|f'|/μ_r),
// so (root_r/B_r)² is the price at which r's demand meets its availability:
// the relaxed dual optimum a cold fleet seeds its prices with (SeedPrices).
func (e *Engine) PriceRoots() []float64 {
	p := e.p
	roots := make([]float64, len(p.Resources))
	for ti, curve := range p.curves {
		slope := p.consts[ti].slope
		if !p.consts[ti].constSlope {
			slope = curve.Slope(p.aggregate(ti, e.taskLat(ti)))
		}
		for g := p.subOff[ti]; g < p.subOff[ti+1]; g++ {
			roots[p.res[g]] += math.Sqrt(p.cost[g] * p.weight[g] * math.Abs(slope))
		}
	}
	return roots
}

// SeedPrices installs mu, indexed like Problem.Resources, as the prices of a
// cold engine, before its first Step. Nothing the construction's refresh
// cached depends on a price, so only the fixed points, the grades and the
// dynamics' history drop.
func (e *Engine) SeedPrices(mu []float64) {
	copy(e.price, mu)
	e.invalidateSparse()
}

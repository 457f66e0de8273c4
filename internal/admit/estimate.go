package admit

import (
	"fmt"
	"math"
	"slices"

	"lla/internal/core"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// The demand pricer. The price screen, the placer's binding and the
// rebalance pass price a task the same way: each subtask at the newcomer's
// stationarity latency on its resource, against that resource's live price.
// It is a screening heuristic — the sufficient test remains the trial
// optimization — but it is closed form and reads exactly the dual signal
// the optimizer maintains. Prices come as a function of the resource's
// index in the workload's Resources, which is the live engine's resource
// index (core.Engine.MuAt).

// subtaskCost prices subtask s, of a task with critical time criticalMs,
// path weight weight and curve slope slope, on resource r at price mu. It
// solves the newcomer's stationarity condition — Equation 7 with zero path
// prices, lat = sqrt(mu·(c+l) / (w·|slope|)) — clamped to the subtask's
// admissible latency interval, and returns that latency and the congestion
// cost mu·share of the share it implies. The price under the square root is
// floored at core.InitialMu, so an uncongested resource (mu ≈ 0) prices the
// newcomer as a fresh engine would instead of predicting it swallows the
// whole availability.
func subtaskCost(s *task.Subtask, criticalMs, weight, slope float64, r share.Resource, mu float64) (lat, cost float64) {
	fn := share.WCETLag{ExecMs: s.ExecMs, LagMs: r.LagMs}
	latMin, latMax := core.Box(s.ExecMs+r.LagMs, 0, r.Availability, s.MinShare, criticalMs)
	denom := -weight * slope
	if denom <= 1e-12 {
		lat = latMax // flat curve: latency is free, take the cheapest
	} else {
		lat = math.Sqrt(math.Max(mu, core.InitialMu) * (s.ExecMs + r.LagMs) / denom)
	}
	if lat < latMin {
		lat = latMin
	} else if lat > latMax {
		lat = latMax
	}
	return lat, mu * fn.Share(lat)
}

// taskCost prices task t where it is bound: the congestion cost Σ mu_r·share
// of its subtasks and their predicted weighted aggregate latency. The curve's
// slope is taken at the critical time, the steepest point of a concave
// curve, which biases latencies low and shares high: the pricer errs toward
// over-predicting demand.
func taskCost(w *workload.Workload, t *task.Task, curve utility.Curve, mode task.WeightMode, mu func(ri int) float64) (cost, aggLatMs float64, err error) {
	weights, err := t.Weights(mode)
	if err != nil {
		return 0, 0, err
	}
	slope := curve.Slope(t.CriticalMs)
	for si := range t.Subtasks {
		s := &t.Subtasks[si]
		ri := resourceIndex(w, s.Resource)
		if ri < 0 {
			return 0, 0, fmt.Errorf("admit: task %s subtask %s: unknown resource %q", t.Name, s.Name, s.Resource)
		}
		lat, c := subtaskCost(s, t.CriticalMs, weights[si], slope, w.Resources[ri], mu(ri))
		cost += c
		aggLatMs += weights[si] * lat
	}
	return cost, aggLatMs, nil
}

// resourceIndex returns the index of resource id in w.Resources, or -1.
func resourceIndex(w *workload.Workload, id string) int {
	return slices.IndexFunc(w.Resources, func(r share.Resource) bool { return r.ID == id })
}

// maxCostBenefit is the price screen's bound: a candidate whose congestion
// cost at the live prices exceeds maxCostBenefit × its utility gain is
// rejected (admitting must not cost more congestion than it adds utility).
const maxCostBenefit = 1.0

// priceScreen runs the admission price gate for a candidate: its predicted
// demand at the live prices mu must not cost more congestion than the
// utility it brings at its predicted aggregate latency. Capacity is not
// re-tested here — the static gate's resource floors already are, and at an
// LLA optimum congested resources sit exactly at capacity, so a live-price
// demand prediction there would veto every arrival. trial is the resident
// workload plus the candidate. It returns a non-empty rejection reason when
// the gate fires; err reports malformed inputs only.
func priceScreen(trial *workload.Workload, cand *task.Task, curve utility.Curve, mode task.WeightMode, mu func(ri int) float64) (string, error) {
	cost, aggLatMs, err := taskCost(trial, cand, curve, mode, mu)
	if err != nil {
		return "", err
	}
	gain := curve.Value(aggLatMs)
	if gain <= 0 && cost > 0 {
		return fmt.Sprintf("congestion cost %.3f with no utility gain (%.3f)", cost, gain), nil
	}
	if cost > maxCostBenefit*gain {
		return fmt.Sprintf("congestion cost %.3f exceeds %.2f× utility gain %.3f",
			cost, maxCostBenefit, gain), nil
	}
	return "", nil
}

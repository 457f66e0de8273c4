package admit

import (
	"fmt"
	"math"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Estimate predicts the marginal footprint an arriving task would have at
// the live resource prices: the share it would demand on each resource at
// its price-optimal latencies, the congestion cost of that demand, and the
// utility it would gain. It is a screening heuristic — the sufficient test
// remains the trial optimization — but it is cheap (closed form, no
// iteration) and uses exactly the dual signal the optimizer maintains.
type Estimate struct {
	// PredictedShare maps resource ID to the share the candidate is
	// predicted to demand there.
	PredictedShare map[string]float64
	// CongestionCost is Σ_r mu_r · PredictedShare[r]: what the demand costs
	// at the live prices (the marginal congestion the task inflicts).
	CongestionCost float64
	// UtilityGain is the candidate's utility at its predicted aggregate
	// latency.
	UtilityGain float64
	// AggLatMs is the predicted weighted aggregate latency.
	AggLatMs float64
}

// EstimateDemand evaluates the candidate against the live price vector mu
// (resource ID → mu_r). For each subtask it solves the newcomer's
// stationarity condition — Equation 7 with zero path prices,
// lat = sqrt(mu·(c+l) / (w·|slope|)) — clamped to the subtask's admissible
// latency interval, and reads the share off the share function. Prices are
// floored at muFloor so uncongested resources (mu ≈ 0) price the newcomer
// as a fresh engine would (InitialMu) instead of predicting it swallows the
// whole availability. The curve slope is taken at the critical time, the
// steepest point of a concave curve, which biases latencies low and shares
// high: the screen errs toward over-predicting demand.
func EstimateDemand(w *workload.Workload, cand *task.Task, curve utility.Curve, mode task.WeightMode, mu map[string]float64, muFloor float64) (*Estimate, error) {
	weights, err := cand.Weights(mode)
	if err != nil {
		return nil, err
	}
	slope := curve.Slope(cand.CriticalMs)
	est := &Estimate{PredictedShare: make(map[string]float64, len(cand.Subtasks))}
	for si, s := range cand.Subtasks {
		r, ok := w.ResourceByID(s.Resource)
		if !ok {
			return nil, fmt.Errorf("admit: subtask %s/%s references unknown resource %q", cand.Name, s.Name, s.Resource)
		}
		muR := mu[r.ID]
		lat, sh := predictLatShare(s.ExecMs, s.MinShare, cand.CriticalMs, weights[si], slope, r, effMu(muR, muFloor))
		est.PredictedShare[r.ID] += sh
		est.CongestionCost += muR * sh
		est.AggLatMs += weights[si] * lat
	}
	est.UtilityGain = curve.Value(est.AggLatMs)
	return est, nil
}

// predictLatShare solves the newcomer's stationarity condition for one
// subtask on one resource — Equation 7 with zero path prices — clamped to
// the admissible latency interval, and returns the latency and implied
// share.
func predictLatShare(execMs, minShare, criticalMs, weight, slope float64, r share.Resource, muEff float64) (lat, sh float64) {
	fn := share.WCETLag{ExecMs: execMs, LagMs: r.LagMs}
	latMin := fn.LatencyFor(r.Availability)
	latMax := criticalMs
	if minShare > 0 {
		if cap := fn.LatencyFor(minShare); cap < latMax {
			latMax = cap
		}
	}
	if latMax < latMin {
		latMax = latMin
	}
	denom := -weight * slope
	if denom <= 1e-12 {
		lat = latMax // flat curve: latency is free, take the cheapest
	} else {
		lat = math.Sqrt(muEff * (execMs + r.LagMs) / denom)
	}
	if lat < latMin {
		lat = latMin
	} else if lat > latMax {
		lat = latMax
	}
	return lat, fn.Share(lat)
}

// priceScreen runs the admission price gate for a candidate. Two tests:
// headroom — the combined demand floors of residents plus candidate (the
// share every feasible allocation must grant, from rep, the static gate's
// workload.Analyze report on trial) must fit under each resource's
// overcommit-adjusted availability with the configured reserve — and
// cost-benefit — the candidate's predicted demand at the live prices mu must
// not cost more congestion than the utility it brings. Floors (not predicted
// demand) drive the headroom test because at an LLA optimum congested
// resources sit exactly at capacity, so any live-price demand prediction
// there saturates and would veto every arrival; the floors are the
// irreducible claim, and the reserve knob buys back slack. trial is the
// resident workload plus the candidate; cfg has its defaults filled. It
// returns a non-empty rejection reason when a gate fires; err reports
// malformed inputs only.
func priceScreen(trial *workload.Workload, rep *workload.SchedulabilityReport, cand *task.Task, curve utility.Curve, mode task.WeightMode, mu map[string]float64, cfg Config) (string, error) {
	est, err := EstimateDemand(trial, cand, curve, mode, mu, cfg.MuFloor)
	if err != nil {
		return "", err
	}
	for _, r := range trial.Resources {
		limit := r.Availability * (cfg.Overcommit - cfg.Headroom)
		if floor := rep.ResourceFloor[r.ID]; floor > limit+1e-9 {
			return fmt.Sprintf("resource %s: demand floor %.3f exceeds headroom %.3f (B=%.3f, overcommit %.2f, headroom %.2f)",
				r.ID, floor, limit, r.Availability, cfg.Overcommit, cfg.Headroom), nil
		}
	}
	if cfg.MaxCostBenefit > 0 {
		if est.UtilityGain <= 0 && est.CongestionCost > 0 {
			return fmt.Sprintf("congestion cost %.3f with no utility gain (%.3f)", est.CongestionCost, est.UtilityGain), nil
		}
		if est.CongestionCost > cfg.MaxCostBenefit*est.UtilityGain {
			return fmt.Sprintf("congestion cost %.3f exceeds %.2f× utility gain %.3f",
				est.CongestionCost, cfg.MaxCostBenefit, est.UtilityGain), nil
		}
	}
	return "", nil
}

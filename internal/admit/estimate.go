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
// floored at core.InitialMu so uncongested resources (mu ≈ 0) price the
// newcomer as a fresh engine would instead of predicting it swallows the
// whole availability. The curve slope is taken at the critical time, the
// steepest point of a concave curve, which biases latencies low and shares
// high: the screen errs toward over-predicting demand.
func EstimateDemand(w *workload.Workload, cand *task.Task, curve utility.Curve, mode task.WeightMode, mu map[string]float64) (*Estimate, error) {
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
		lat, sh := predictLatShare(s.ExecMs, s.MinShare, cand.CriticalMs, weights[si], slope, r, effMu(muR))
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

// maxCostBenefit is the price screen's bound: a candidate whose congestion
// cost at the live prices exceeds maxCostBenefit × its utility gain is
// rejected (admitting must not cost more congestion than it adds utility).
const maxCostBenefit = 1.0

// priceScreen runs the admission price gate for a candidate: its predicted
// demand at the live prices mu must not cost more congestion than the
// utility it brings. Capacity is not re-tested here — the static gate's
// resource floors already are, and at an LLA optimum congested resources sit
// exactly at capacity, so a live-price demand prediction there would veto
// every arrival. trial is the resident workload plus the candidate. It
// returns a non-empty rejection reason when the gate fires; err reports
// malformed inputs only.
func priceScreen(trial *workload.Workload, cand *task.Task, curve utility.Curve, mode task.WeightMode, mu map[string]float64) (string, error) {
	est, err := EstimateDemand(trial, cand, curve, mode, mu)
	if err != nil {
		return "", err
	}
	if est.UtilityGain <= 0 && est.CongestionCost > 0 {
		return fmt.Sprintf("congestion cost %.3f with no utility gain (%.3f)", est.CongestionCost, est.UtilityGain), nil
	}
	if est.CongestionCost > maxCostBenefit*est.UtilityGain {
		return fmt.Sprintf("congestion cost %.3f exceeds %.2f× utility gain %.3f",
			est.CongestionCost, maxCostBenefit, est.UtilityGain), nil
	}
	return "", nil
}

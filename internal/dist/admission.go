package dist

import (
	"fmt"
	"time"

	"lla/internal/admit"
	"lla/internal/transport"
	"lla/internal/workload"
)

// Coordinator-side admission. A running deployment answers "could this task
// join?" queries without owning an engine: the coordinator screens the
// candidate with the static necessary conditions (workload.Analyze) and the
// admission price screen (admit.PriceScreen) against the per-resource price
// mirrors the resource nodes refresh every completed round. That is the
// cheap two-gate prefix of the full controller pipeline — the sufficient
// trial-optimization gate needs an engine, so a coordinator admit verdict
// means "worth enacting", not "proven schedulable". Decisions are recorded
// on the run's Result and answered to the querying endpoint best-effort.
// The protocol has no frame type for either message: they cross a network as
// JSON on RAW frames and are read back with Message.Decode.

// Message kinds of the admission exchange.
const (
	kindAdmitQuery    = "admitQuery"
	kindAdmitDecision = "admitDecision"
)

// AdmissionQuery describes a chain-pipeline candidate, mirroring
// workload.ChurnTemplate: stage i executes for StageExecMs[i] on
// Resources[i]. It is also the wire payload of kindAdmitQuery.
type AdmissionQuery struct {
	// Name is the instance name; it must not collide with a resident task.
	Name string `json:"name"`
	// CriticalMs is the end-to-end deadline.
	CriticalMs float64 `json:"criticalMs"`
	// StageExecMs holds per-stage WCETs; Resources the per-stage bindings.
	StageExecMs []float64 `json:"stageExecMs"`
	Resources   []string  `json:"resources"`
	// UtilityK scales the linear utility curve (K·CriticalMs at zero
	// latency); PeriodMs is the trigger period (default 100).
	UtilityK float64 `json:"utilityK"`
	PeriodMs float64 `json:"periodMs,omitempty"`
}

// AdmissionDecision is the coordinator's verdict, also the wire payload of
// kindAdmitDecision.
type AdmissionDecision struct {
	Name     string `json:"name"`
	Admitted bool   `json:"admitted"`
	// Stage is the admission gate that decided (admit.StageStatic or
	// admit.StagePrice — the coordinator runs no trial gate).
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
}

// SetAdmissionPolicy overrides the admission screen configuration used for
// coordinator-side queries (headroom, overcommit, cost-benefit bound). Call
// before Run; the zero config uses admit's defaults.
func (r *Runtime) SetAdmissionPolicy(cfg admit.Config) { r.admitCfg = cfg }

// decideAdmission screens one query against the deployed workload and the
// live price mirrors.
func (r *Runtime) decideAdmission(q AdmissionQuery) AdmissionDecision {
	d := AdmissionDecision{Name: q.Name, Stage: admit.StageStatic}
	tpl := workload.ChurnTemplate{
		Name:        q.Name,
		CriticalMs:  q.CriticalMs,
		StageExecMs: q.StageExecMs,
		UtilityK:    q.UtilityK,
		PeriodMs:    q.PeriodMs,
	}
	cand, curve, err := tpl.Instantiate(q.Name, q.Resources)
	if err != nil {
		d.Reason = err.Error()
		return d
	}
	resident := r.p.Workload()
	if resident.TaskByName(q.Name) != nil {
		d.Reason = fmt.Sprintf("task %q is already resident", q.Name)
		return d
	}
	trial := resident.Clone()
	trial.Tasks = append(trial.Tasks, cand)
	trial.Curves[q.Name] = curve

	rep, err := workload.Analyze(trial)
	if err != nil {
		d.Reason = err.Error()
		return d
	}
	if !rep.Feasible() {
		d.Reason = rep.String()
		return d
	}

	mu := make(map[string]float64, len(r.resNodes))
	for ri := range r.resNodes {
		mu[r.p.Resources[ri].ID] = r.resNodes[ri].liveMu.Value()
	}
	d.Stage = admit.StagePrice
	_, reason, err := admit.PriceScreen(trial, cand, curve, r.cfg.WeightMode, mu, r.admitCfg)
	if err != nil {
		d.Reason = err.Error()
		return d
	}
	if reason != "" {
		d.Reason = reason
		return d
	}
	d.Admitted = true
	d.Reason = "passed static and price screens at the live prices"
	return d
}

// QueryAdmission asks a running deployment's coordinator whether the
// candidate could join, from the given (caller-owned) endpoint, and blocks
// for the decision up to timeout. The endpoint must not be one of the
// deployment's own node endpoints.
func QueryAdmission(ep transport.Endpoint, q AdmissionQuery, timeout time.Duration) (AdmissionDecision, error) {
	if err := ep.Send(coordinatorAddr, kindAdmitQuery, q); err != nil {
		return AdmissionDecision{}, fmt.Errorf("dist: sending admission query: %w", err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				return AdmissionDecision{}, fmt.Errorf("dist: endpoint closed before admission decision for %q", q.Name)
			}
			if m.Kind != kindAdmitDecision {
				continue
			}
			var d AdmissionDecision
			if err := m.Decode(&d); err != nil {
				return AdmissionDecision{}, err
			}
			if d.Name != q.Name {
				continue
			}
			return d, nil
		case <-timer.C:
			return AdmissionDecision{}, fmt.Errorf("dist: admission decision for %q timed out after %v", q.Name, timeout)
		}
	}
}

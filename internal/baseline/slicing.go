// Package baseline implements the comparison algorithms LLA is evaluated
// against: classic offline deadline-slicing heuristics, in the spirit of the
// related work the paper cites — Bettati & Liu's even slicing and
// WCET-proportional slicing. LLA's optimality is not cross-validated here
// but certified by core.Engine.DualBound.
//
// The slicing baselines work with a fixed end-to-end deadline and ignore
// resource capacity (the paper notes "Neither BST nor AST account for
// resource capacity"), so on congested workloads they can demand more than
// a resource can supply; Evaluate reports such violations.
package baseline

import (
	"fmt"
	"math"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/workload"
)

// Assignment is a per-task latency assignment produced by a baseline.
type Assignment struct {
	// Name identifies the producing algorithm.
	Name string
	// LatMs[ti][si] mirrors the workload's task/subtask indexing.
	LatMs [][]float64
}

// EvenSlice distributes each task's critical time evenly along every path:
// subtask s gets C_i / L_s where L_s is the length of the longest path
// through s. Every path p then satisfies Σ_{s∈p} C/L_s <= C because
// L_s >= |p| for all s in p.
func EvenSlice(w *workload.Workload) (*Assignment, error) {
	return slice(w, "even-slice", func(task.Subtask) float64 { return 1 })
}

// ProportionalSlice distributes each task's critical time along every path
// proportionally to WCET: subtask s gets C_i * c_s / W_s where W_s is the
// maximum summed WCET among paths through s. Every path p satisfies
// Σ_{s∈p} C*c_s/W_s <= C because W_s >= W_p for s in p.
func ProportionalSlice(w *workload.Workload) (*Assignment, error) {
	return slice(w, "wcet-proportional", func(s task.Subtask) float64 { return s.ExecMs })
}

// slice gives subtask s of each task C_i * cost(s) / W_s, where W_s is the
// largest summed cost of a path through s.
func slice(w *workload.Workload, name string, cost func(task.Subtask) float64) (*Assignment, error) {
	a := &Assignment{Name: name}
	for _, t := range w.Tasks {
		paths, err := t.Paths()
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		maxW := make([]float64, len(t.Subtasks))
		for _, p := range paths {
			sum := 0.0
			for _, s := range p {
				sum += cost(t.Subtasks[s])
			}
			for _, s := range p {
				if sum > maxW[s] {
					maxW[s] = sum
				}
			}
		}
		lats := make([]float64, len(t.Subtasks))
		for si, s := range t.Subtasks {
			lats[si] = t.CriticalMs * cost(s) / maxW[si]
		}
		a.LatMs = append(a.LatMs, lats)
	}
	return a, nil
}

// Evaluation summarizes an assignment against a workload.
type Evaluation struct {
	// Utility is the aggregate utility Σ U_i at the assignment.
	Utility float64
	// TaskUtility holds per-task utilities.
	TaskUtility []float64
	// ShareSums[resourceID] is the demanded share on each resource.
	ShareSums map[string]float64
	// MaxResourceViolation is max over resources of (demand − B_r), clamped
	// at 0.
	MaxResourceViolation float64
	// MaxPathViolationFrac is max over paths of (latency − C)/C, clamped at
	// 0.
	MaxPathViolationFrac float64
	// CriticalPathMs holds each task's longest-path latency.
	CriticalPathMs []float64
}

// Feasible reports whether no constraint is violated beyond tol.
func (e *Evaluation) Feasible(tol float64) bool {
	return e.MaxResourceViolation <= tol && e.MaxPathViolationFrac <= tol
}

// Evaluate computes the utility and constraint diagnostics of an assignment
// under the given weight mode.
func Evaluate(w *workload.Workload, a *Assignment, mode task.WeightMode) (*Evaluation, error) {
	if len(a.LatMs) != len(w.Tasks) {
		return nil, fmt.Errorf("baseline: assignment covers %d tasks, workload has %d", len(a.LatMs), len(w.Tasks))
	}
	ev := &Evaluation{ShareSums: make(map[string]float64, len(w.Resources))}
	for _, r := range w.Resources {
		ev.ShareSums[r.ID] = 0
	}
	for ti, t := range w.Tasks {
		lats := a.LatMs[ti]
		if len(lats) != len(t.Subtasks) {
			return nil, fmt.Errorf("baseline: task %s assignment covers %d subtasks, want %d", t.Name, len(lats), len(t.Subtasks))
		}
		weights, err := t.Weights(mode)
		if err != nil {
			return nil, fmt.Errorf("baseline: task %s: %w", t.Name, err)
		}
		agg, _ := task.WeightedLatencyMs(weights, lats) // lengths checked above
		val := w.Curves[t.Name].Value(agg)
		ev.TaskUtility = append(ev.TaskUtility, val)
		ev.Utility += val

		cp, _, err := t.CriticalPathMs(lats)
		if err != nil {
			return nil, err
		}
		ev.CriticalPathMs = append(ev.CriticalPathMs, cp)
		if frac := (cp - t.CriticalMs) / t.CriticalMs; frac > ev.MaxPathViolationFrac {
			ev.MaxPathViolationFrac = frac
		}
		for si, s := range t.Subtasks {
			r, _ := w.ResourceByID(s.Resource)
			fn := share.WCETLag{ExecMs: s.ExecMs, LagMs: r.LagMs}
			ev.ShareSums[s.Resource] += fn.Share(lats[si])
		}
	}
	for _, r := range w.Resources {
		if over := ev.ShareSums[r.ID] - r.Availability; over > ev.MaxResourceViolation {
			ev.MaxResourceViolation = over
		}
	}
	if math.IsNaN(ev.Utility) {
		return nil, fmt.Errorf("baseline: NaN utility for %s", a.Name)
	}
	return ev, nil
}

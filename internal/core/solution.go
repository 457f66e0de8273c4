package core

import (
	"fmt"
	"strings"
)

// Snapshot captures the optimizer's observable state after an iteration: the
// quantities the paper's figures plot (utility, share sums) and the
// constraint diagnostics its schedulability test relies on (Section 5.4).
type Snapshot struct {
	// Iteration is the number of completed iterations.
	Iteration int
	// Utility is the aggregate utility Σ_i U_i.
	Utility float64
	// TaskUtility holds per-task utilities, workload task order.
	TaskUtility []float64
	// LatMs[ti][si] are the assigned latencies.
	LatMs [][]float64
	// ShareMs[ti][si] are the implied resource shares.
	Shares [][]float64
	// ShareSums[ri] is the total share demanded on each resource.
	ShareSums []float64
	// Mu[ri] is each resource's price.
	Mu []float64
	// CriticalPathMs[ti] is each task's longest path latency.
	CriticalPathMs []float64
	// CriticalTimeMs[ti] is each task's deadline, for convenience.
	CriticalTimeMs []float64
	// MaxResourceViolation is max_r (ShareSums[r] − B_r), clamped at 0:
	// positive means resource congestion.
	MaxResourceViolation float64
	// MaxPathViolationFrac is max over tasks of
	// (CriticalPath − CriticalTime)/CriticalTime, clamped at 0: positive
	// means a deadline cannot be met.
	MaxPathViolationFrac float64
}

// Snapshot assembles the current state into freshly allocated slices.
func (e *Engine) Snapshot() Snapshot {
	var s Snapshot
	e.SnapshotInto(&s)
	return s
}

// SnapshotInto assembles the current state into s, reusing s's slices when
// their capacity suffices. Callers that poll every iteration (monitoring
// loops, convergence studies) can hold one Snapshot and refill it without
// per-iteration garbage; the refilled snapshot aliases its previous
// buffers, so copy anything that must outlive the next call.
func (e *Engine) SnapshotInto(s *Snapshot) {
	nt, nr := len(e.p.Tasks), len(e.price)
	s.Iteration = e.iter
	s.Utility = 0
	s.MaxResourceViolation = 0
	s.MaxPathViolationFrac = 0
	s.ShareSums = resizeFloats(s.ShareSums, nr)
	copy(s.ShareSums, e.shareSums)
	s.Mu = resizeFloats(s.Mu, nr)
	copy(s.Mu, e.price)
	for ri := range e.price {
		over := e.shareSums[ri] - e.p.Resources[ri].Availability
		if over > s.MaxResourceViolation {
			s.MaxResourceViolation = over
		}
	}
	s.TaskUtility = resizeFloats(s.TaskUtility, nt)
	s.LatMs = resizeRows(s.LatMs, nt)
	s.Shares = resizeRows(s.Shares, nt)
	s.CriticalPathMs = resizeFloats(s.CriticalPathMs, nt)
	s.CriticalTimeMs = resizeFloats(s.CriticalTimeMs, nt)
	for ti := range e.p.Tasks {
		c := e.Controller(ti)
		u := c.Utility()
		s.TaskUtility[ti] = u
		s.Utility += u
		s.LatMs[ti] = resizeFloats(s.LatMs[ti], len(c.LatMs))
		copy(s.LatMs[ti], c.LatMs)
		s.Shares[ti] = resizeFloats(s.Shares[ti], len(c.LatMs))
		e.p.sharesInto(s.Shares[ti], ti, c.LatMs, false)
		cp, _ := c.CriticalPathMs()
		crit := e.p.Tasks[ti].CriticalMs
		s.CriticalPathMs[ti] = cp
		s.CriticalTimeMs[ti] = crit
		if frac := (cp - crit) / crit; frac > s.MaxPathViolationFrac {
			s.MaxPathViolationFrac = frac
		}
	}
}

// Probe is the allocation-free view of an iteration: utility and the two
// constraint violations, computed without the deep copies a full Snapshot
// makes.
type Probe struct {
	// Iteration is the number of completed iterations.
	Iteration int
	// Utility is the aggregate utility Σ_i U_i.
	Utility float64
	// MaxResourceViolation matches Snapshot.MaxResourceViolation.
	MaxResourceViolation float64
	// MaxPathViolationFrac matches Snapshot.MaxPathViolationFrac.
	MaxPathViolationFrac float64
}

// Probe computes the convergence scalars for the current state. The values
// are bitwise-identical to the corresponding Snapshot fields (same
// summation and max-scan order) at none of the allocation cost.
func (e *Engine) Probe() Probe {
	pr := Probe{Iteration: e.iter}
	for ri := range e.price {
		over := e.shareSums[ri] - e.p.Resources[ri].Availability
		if over > pr.MaxResourceViolation {
			pr.MaxResourceViolation = over
		}
	}
	for ti := range e.p.Tasks {
		lat := e.taskLat(ti)
		pr.Utility += e.p.Tasks[ti].Curve.Value(e.p.aggregate(ti, lat))
		cp, _ := e.p.criticalPath(ti, lat)
		crit := e.p.consts[ti].criticalMs
		if frac := (cp - crit) / crit; frac > pr.MaxPathViolationFrac {
			pr.MaxPathViolationFrac = frac
		}
	}
	return pr
}

// resizeFloats returns a slice of length n, reusing s's backing array when
// it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeRows returns a row slice of length n, keeping existing rows so
// their backing arrays stay reusable.
func resizeRows(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		out := make([][]float64, n)
		copy(out, s)
		return out
	}
	return s[:n]
}

// Feasible reports whether no constraint is violated beyond tol.
func (s Snapshot) Feasible(tol float64) bool {
	return s.MaxResourceViolation <= tol && s.MaxPathViolationFrac <= tol
}

// String renders a compact human-readable summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iter=%d utility=%.3f maxResViol=%.4f maxPathViol=%.4f",
		s.Iteration, s.Utility, s.MaxResourceViolation, s.MaxPathViolationFrac)
	return b.String()
}

// LatencyByName returns the latency assigned to the named subtask of the
// named task, resolving through the engine's problem. It returns an error
// for unknown names.
func (e *Engine) LatencyByName(taskName, subtaskName string) (float64, error) {
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return 0, err
	}
	return e.lat[e.p.subOff[ti]+int32(si)], nil
}

// ShareByName returns the share implied by the current latency of the named
// subtask.
func (e *Engine) ShareByName(taskName, subtaskName string) (float64, error) {
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return 0, err
	}
	g := e.p.subOff[ti] + int32(si)
	return e.p.ShareAt(g, e.lat[g]), nil
}

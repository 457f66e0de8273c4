package core

import (
	"fmt"
	"math"
	"slices"
)

// Snapshot captures the optimizer's observable state after an iteration: the
// quantities the paper's figures plot (utility, share sums) and the
// constraint diagnostics its schedulability test relies on (Section 5.4).
// A fresh Snapshot's LatMs and Shares rows share backing chunks of at most
// rowChunk floats, each row capacity-capped to its length.
type Snapshot struct {
	// Iteration is the number of completed iterations.
	Iteration int
	// Utility is the aggregate utility Σ_i U_i.
	Utility float64
	// TaskUtility holds per-task utilities, workload task order.
	TaskUtility []float64
	// LatMs[ti][si] are the assigned latencies.
	LatMs [][]float64
	// Shares[ti][si] are the implied resource shares.
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

// rowChunk is the most floats (32 KB) a backing chunk of fresh Snapshot rows
// holds: fewer allocations than a row per task, no large object to scan.
const rowChunk = 4096

// Snapshot assembles the current state into freshly allocated slices: two
// row chunks per rowChunk subtasks or fewer, and five objects besides.
func (e *Engine) Snapshot() (s Snapshot) {
	e.SnapshotInto(&s)
	return s
}

// SnapshotInto assembles the current state into s, reusing s's slices when
// their capacity suffices and its rows when they are shaped like the
// engine's tasks. Callers that poll every iteration (monitoring loops,
// convergence studies) can hold one Snapshot and refill it without
// per-iteration garbage; the refilled snapshot aliases its previous
// buffers, so copy anything that must outlive the next call.
func (e *Engine) SnapshotInto(s *Snapshot) {
	nt := e.p.NumTasks()
	s.ShareSums = append(s.ShareSums[:0], e.shareSums...)
	s.Mu = append(s.Mu[:0], e.price...)
	s.LatMs = fillRows(s.LatMs, e.lat, e.p.subOff, false)
	s.Shares = fillRows(s.Shares, e.shares, e.p.subOff, true)
	if min(cap(s.TaskUtility), cap(s.CriticalPathMs), cap(s.CriticalTimeMs)) < nt {
		v := make([]float64, 3*nt) // one object for the three per-task vectors
		s.TaskUtility, s.CriticalPathMs, s.CriticalTimeMs = v[:nt:nt], v[nt:2*nt:2*nt], v[2*nt:]
	}
	s.TaskUtility, s.CriticalPathMs, s.CriticalTimeMs = s.TaskUtility[:nt], s.CriticalPathMs[:nt], s.CriticalTimeMs[:nt]
	pr := e.scan(s)
	s.Iteration, s.Utility = pr.Iteration, pr.Utility
	s.MaxResourceViolation, s.MaxPathViolationFrac = pr.MaxResourceViolation, pr.MaxPathViolationFrac
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

// Probe computes the convergence scalars for the current state: the scan
// behind Snapshot's, so bitwise its values, at none of its allocations.
func (e *Engine) Probe() Probe { return e.scan(nil) }

// scan computes the convergence scalars and, when s is non-nil, fills s's
// sized per-task vectors. While a task's grade is cached it reads the
// critical path from it — criticalPath at these very latencies (regrade) —
// and the utility, evaluated there on the first read. It never grades.
func (e *Engine) scan(s *Snapshot) Probe {
	p, pr := e.p, Probe{Iteration: e.iter}
	for ri, sum := range e.shareSums {
		if over := sum - p.Resources[ri].Availability; over > pr.MaxResourceViolation {
			pr.MaxResourceViolation = over
		}
	}
	for ti, curve := range p.curves {
		g := &e.grade[ti]
		if !e.graded[ti] || math.IsNaN(g.u) { // an ungraded slot's u is never read back
			g.u = curve.Value(p.aggregate(ti, e.taskLat(ti)))
		}
		u, cp := g.u, g.cp
		if !e.graded[ti] {
			cp, _ = p.criticalPath(ti, e.taskLat(ti))
		}
		crit := p.consts[ti].criticalMs
		pr.Utility += u
		if frac := (cp - crit) / crit; frac > pr.MaxPathViolationFrac {
			pr.MaxPathViolationFrac = frac
		}
		if s != nil {
			s.TaskUtility[ti], s.CriticalPathMs[ti], s.CriticalTimeMs[ti] = u, cp, crit
		}
	}
	return pr
}

// fillRows returns rows holding src's task windows off[ti]:off[ti+1], as
// magnitudes when abs is set: rows refilled when shaped like the windows, else
// capacity-capped rows carved from chunks cloned from src, each of the tasks
// that fit in rowChunk floats (or of one task).
func fillRows(rows [][]float64, src []float64, off []int32, abs bool) [][]float64 {
	nt := len(off) - 1
	shaped := len(rows) == nt
	for ti := 0; shaped && ti < nt; ti++ {
		shaped = len(rows[ti]) == int(off[ti+1]-off[ti])
	}
	if shaped {
		for ti, row := range rows {
			copy(row, src[off[ti]:off[ti+1]])
			absIf(abs, row)
		}
		return rows
	}
	rows = make([][]float64, nt)
	for ti := 0; ti < nt; {
		end := ti + 1
		for end < nt && off[end+1]-off[ti] <= rowChunk {
			end++
		}
		chunk := slices.Clone(src[off[ti]:off[end]])
		absIf(abs, chunk)
		for ; ti < end; ti++ {
			n := off[ti+1] - off[ti]
			rows[ti], chunk = chunk[:n:n], chunk[n:]
		}
	}
	return rows
}

// absIf replaces each value of v by its magnitude when abs is set.
func absIf(abs bool, v []float64) {
	for i := 0; abs && i < len(v); i++ {
		v[i] = math.Abs(v[i])
	}
}

// Feasible reports whether no constraint is violated beyond tol.
func (s Snapshot) Feasible(tol float64) bool {
	return s.MaxResourceViolation <= tol && s.MaxPathViolationFrac <= tol
}

// String renders a compact human-readable summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("iter=%d utility=%.3f maxResViol=%.4f maxPathViol=%.4f",
		s.Iteration, s.Utility, s.MaxResourceViolation, s.MaxPathViolationFrac)
}

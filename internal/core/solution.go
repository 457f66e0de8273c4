package core

import (
	"fmt"
	"math"
	"strings"
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

// rowChunk is the most floats (32 KB) a backing chunk of Snapshot rows
// holds: fewer allocations than a row per task, no large object to scan.
const rowChunk = 4096

// Snapshot assembles the current state into freshly allocated slices, two
// row chunks per rowChunk subtasks and a fixed few besides.
func (e *Engine) Snapshot() Snapshot {
	var s Snapshot
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
	nt, nr := len(e.p.Tasks), len(e.price)
	s.ShareSums = resizeFloats(s.ShareSums, nr)
	copy(s.ShareSums, e.shareSums)
	s.Mu = resizeFloats(s.Mu, nr)
	copy(s.Mu, e.price)
	s.TaskUtility = resizeFloats(s.TaskUtility, nt)
	s.LatMs = shapeRows(s.LatMs, e.p.subOff)
	s.Shares = shapeRows(s.Shares, e.p.subOff)
	s.CriticalPathMs = resizeFloats(s.CriticalPathMs, nt)
	s.CriticalTimeMs = resizeFloats(s.CriticalTimeMs, nt)
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
// sized per-task vectors and rows. It reads what the engine has already
// computed: each share from the share cache (which negates bound-active
// ones) and each critical path from the task's grade while that is cached —
// criticalPath at these very latencies (gradeOf). It never grades.
func (e *Engine) scan(s *Snapshot) Probe {
	p, pr := e.p, Probe{Iteration: e.iter}
	for ri, sum := range e.shareSums {
		if over := sum - p.Resources[ri].Availability; over > pr.MaxResourceViolation {
			pr.MaxResourceViolation = over
		}
	}
	for ti := range p.Tasks {
		lo, hi := p.subOff[ti], p.subOff[ti+1]
		lat := e.lat[lo:hi]
		u := p.Tasks[ti].Curve.Value(p.aggregate(ti, lat))
		cp := e.grade[ti].cp
		if !e.graded[ti] {
			cp, _ = p.criticalPath(ti, lat)
		}
		crit := p.consts[ti].criticalMs
		pr.Utility += u
		if frac := (cp - crit) / crit; frac > pr.MaxPathViolationFrac {
			pr.MaxPathViolationFrac = frac
		}
		if s != nil {
			copy(s.LatMs[ti], lat)
			for si, sh := range e.shares[lo:hi] {
				s.Shares[ti][si] = math.Abs(sh)
			}
			s.TaskUtility[ti], s.CriticalPathMs[ti], s.CriticalTimeMs[ti] = u, cp, crit
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

// shapeRows returns rows as they are when row ti already has length
// off[ti+1]−off[ti], and otherwise rows of those lengths carved,
// capacity-capped, from chunks of at most rowChunk floats (or one task's).
func shapeRows(rows [][]float64, off []int32) [][]float64 {
	nt := len(off) - 1
	shaped := len(rows) == nt
	for ti := 0; shaped && ti < nt; ti++ {
		shaped = len(rows[ti]) == int(off[ti+1]-off[ti])
	}
	if shaped {
		return rows
	}
	rows = make([][]float64, nt)
	var buf []float64
	for ti := range rows {
		n := int(off[ti+1] - off[ti])
		if len(buf) < n {
			buf = make([]float64, max(n, min(rowChunk, int(off[nt]-off[ti]))))
		}
		rows[ti], buf = buf[:n:n], buf[n:]
	}
	return rows
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

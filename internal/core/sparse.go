package core

import "slices"

// The active set (DESIGN.md §11). At a certified point LLA's floating-point
// updates stop changing bits: the price dynamics treat a rounding-level
// excess as zero (DESIGN.md §12), so the skip tests stay exact. Step skips a
// controller's solve while no price or congestion flag it observes has moved
// since a solve that left its own state bitwise unchanged (ctlStable), and a
// resource's reprice while no contributor's latency moved since a no-op
// price step (priceStable); each flag is cleared where the move happens.
// Both are deterministic state machines S' = F(S, x): after F(S, x) == S,
// re-running F on the same x reproduces S and every cached output, so Step's
// snapshots are byte-identical to an iteration that skips nothing (the
// tests' denseStep) under every Workers count. Any write to S or the problem
// data outside Step must drop the fixed points it can reach, and with them
// Certify's cached task grades (certify.go): unsettle for one resource's
// observers, refreshResource for one resource, invalidateSparse for all.

// Incidence is the CSR-style index of the bipartite task/resource structure,
// built once at engine construction: which distinct resources a task's
// controller observes (the mu/congested slots its solve reads), and which
// distinct tasks contribute shares to a resource (the fan-out of a moved
// price and the fan-in of its update). Both directions are flat int32 arrays so the
// per-Step scans stay cache-dense and allocation-free. It is a
// fleet.Incidence: the partitioner can walk a compiled problem's.
type Incidence struct {
	// taskResOff/taskRes: task ti observes resources
	// taskRes[taskResOff[ti]:taskResOff[ti+1]], in first-appearance order.
	taskResOff []int32
	taskRes    []int32
	// resTaskOff/resTask: resource ri receives shares from tasks
	// resTask[resTaskOff[ri]:resTaskOff[ri+1]], in first-appearance order.
	resTaskOff []int32
	resTask    []int32
}

// NumTasks returns the task count the index was built over.
func (inc *Incidence) NumTasks() int { return len(inc.taskResOff) - 1 }

// NumResources returns the resource count the index was built over.
func (inc *Incidence) NumResources() int { return len(inc.resTaskOff) - 1 }

// TaskResources returns the distinct resources task ti touches, in
// first-appearance order. The returned slice aliases the index; callers must
// not mutate it.
func (inc *Incidence) TaskResources(ti int) []int32 {
	return inc.taskRes[inc.taskResOff[ti]:inc.taskResOff[ti+1]]
}

// NewIncidence builds the index of the compiled problem. No task of a
// problem has two subtasks on one resource (workload validation), so the
// task-to-resource direction is the problem's own per-subtask resource array
// and only the transpose is built.
func NewIncidence(p *Problem) Incidence {
	nt, nr := p.NumTasks(), len(p.Resources)
	inc := Incidence{taskResOff: p.subOff, taskRes: p.res, resTaskOff: make([]int32, nr+1)}
	for _, ri := range p.res {
		inc.resTaskOff[ri+1]++
	}

	// The other direction is the transpose: tasks are compiled in order, so a
	// resource's contributors in first-appearance order are ascending.
	for ri := 0; ri < nr; ri++ {
		inc.resTaskOff[ri+1] += inc.resTaskOff[ri]
	}
	inc.resTask = make([]int32, len(inc.taskRes))
	next := slices.Clone(inc.resTaskOff[:nr])
	for ti := 0; ti < nt; ti++ {
		for _, ri := range inc.TaskResources(ti) {
			inc.resTask[next[ri]] = int32(ti)
			next[ri]++
		}
	}
	return inc
}

// SparseStats counts the active set's activity since engine construction
// (or the last ResetSparseStats). All counts are totals across iterations;
// skipped/(skipped+executed) is the controller skip rate the benchmarks
// report as skipped_pct.
type SparseStats struct {
	// Iterations counts Steps taken.
	Iterations uint64
	// SkippedSolves counts controller solves skipped because the observed
	// prices were bitwise unchanged and the controller was at a fixed point.
	SkippedSolves uint64
	// ExecutedSolves counts controller solves actually performed.
	ExecutedSolves uint64
	// CleanResources counts resource price updates skipped because no
	// contributing share changed and the price step was at its fixed point.
	CleanResources uint64
	// RepricedResources counts resource price updates actually performed.
	RepricedResources uint64
}

// SparseStats returns the engine's cumulative active-set counters.
func (e *Engine) SparseStats() SparseStats { return e.sstats }

// ResetSparseStats zeroes the cumulative counters (benchmark windows).
func (e *Engine) ResetSparseStats() { e.sstats = SparseStats{} }

// unsettle drops the fixed point and the grade of every task observing
// resource ri: its price, its congestion flag or its subtasks' bounds moved,
// so the task's next Step must solve and its next certificate re-grade it.
func (e *Engine) unsettle(ri int) {
	for _, ti := range e.inc.resTask[e.inc.resTaskOff[ri]:e.inc.resTaskOff[ri+1]] {
		e.ctlStable[ti], e.graded[ti] = false, false
	}
}

// invalidateSparse drops every fixed-point flag and task grade. Any
// wholesale write of the problem data or controller state outside Step —
// construction, warm starts, workload replacement — must call it: the skip
// contract is "inputs unmoved AND state untouched", and out-of-band writes
// break the second half invisibly. A change confined to one resource drops
// only what it reaches (Engine.refreshResource).
func (e *Engine) invalidateSparse() {
	clear(e.ctlStable)
	clear(e.priceStable)
	clear(e.graded)
	// The price dynamics carry history (Newton's safeguard); an out-of-band
	// change invalidates it for the same reason it invalidates the fixed
	// points — damping across the discontinuity would be meaningless.
	e.dyn.Invalidate()
}

// initSparse sizes the active-set state and the grade cache for a freshly
// compiled problem.
func (e *Engine) initSparse() {
	e.inc = NewIncidence(e.p)
	nt := e.p.NumTasks()
	e.ctlStable = make([]bool, nt)
	e.latChanged = make([]bool, nt)
	e.priceStable = make([]bool, len(e.p.Resources))
	e.shardSkipped = make([]uint64, e.nshards)
	e.grade = make([]taskGrade, nt)
	e.graded = make([]bool, nt)
	e.invalidateSparse()
}

package core

import "slices"

// The active set (DESIGN.md §11). At a certified point LLA's floating-point
// updates stop changing bits: the price dynamics treat a rounding-level
// excess as zero (DESIGN.md §12), so the skip comparisons stay exact. Step
// skips a controller's solve when its observed prices are bitwise what its
// previous solve saw AND that solve left the controller's own state —
// latencies, path prices, step sizes — bitwise unchanged, and a resource's
// reprice when no contributing share changed AND its previous price step was
// likewise a no-op. Both are deterministic state machines S' = F(S, x): after
// F(S, x) == S, re-running F on the same x reproduces S and every cached
// output, so Step's snapshots are byte-identical to an iteration that skips
// nothing (the tests' denseStep) under every Workers count. Any write to S or
// the problem data outside Step must drop the fixed points it can reach, and
// with them Certify's cached task grades (certify.go):
// Engine.refreshResource for one resource, invalidateSparse for anything wider.

// Incidence is the CSR-style index of the bipartite task/resource structure,
// built once at engine construction: which distinct resources a task's
// controller observes (the mu/congested slots it fingerprints), and which
// distinct tasks contribute shares to a resource (the dirty-propagation
// fan-in of its price update). Both directions are flat int32 arrays so the
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
	nt, nr := len(p.Tasks), len(p.Resources)
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

// fingerprintClean reports whether task ti's observed price view — the mu
// and congested slots of every resource it touches — is bitwise identical
// to the view recorded at its previous executed solve. Float comparison is
// deliberately exact (==): a skip is only sound for identical bits, and
// NaNs (which would compare unequal to themselves and force a solve) cannot
// reach the price vector because price updates project onto [0, MaxPrice].
func (e *Engine) fingerprintClean(ti int) bool {
	lo, hi := e.inc.taskResOff[ti], e.inc.taskResOff[ti+1]
	for j := lo; j < hi; j++ {
		ri := e.inc.taskRes[j]
		if e.mu[ri] != e.fpMu[j] || e.congested[ri] != e.fpCong[j] {
			return false
		}
	}
	return true
}

// recordFingerprint snapshots task ti's observed price view before a solve.
func (e *Engine) recordFingerprint(ti int) {
	lo, hi := e.inc.taskResOff[ti], e.inc.taskResOff[ti+1]
	for j := lo; j < hi; j++ {
		ri := e.inc.taskRes[j]
		e.fpMu[j] = e.mu[ri]
		e.fpCong[j] = e.congested[ri]
	}
}

// resourceDirty reports whether any task contributing shares to resource ri
// re-solved with changed latencies this Step.
func (e *Engine) resourceDirty(ri int) bool {
	lo, hi := e.inc.resTaskOff[ri], e.inc.resTaskOff[ri+1]
	for j := lo; j < hi; j++ {
		if e.latChanged[e.inc.resTask[j]] {
			return true
		}
	}
	return false
}

// invalidateSparse drops every cached fingerprint, fixed-point flag and task
// grade. Any wholesale write of the problem data or controller state outside
// Step — construction, warm starts, workload replacement — must call it: the
// skip contract is "inputs identical AND state untouched", and out-of-band
// writes break the second half invisibly. A change confined to one resource drops
// only what it reaches (Engine.refreshResource).
func (e *Engine) invalidateSparse() {
	for i := range e.ctlSolved {
		e.ctlSolved[i] = false
		e.ctlStable[i] = false
		e.latChanged[i] = true
	}
	clear(e.priceStable)
	clear(e.sumValid)
	clear(e.graded)
	// The price dynamics carry history (Newton's safeguard); an out-of-band
	// change invalidates it for the same reason it invalidates the
	// fingerprints — damping across the discontinuity would be meaningless.
	e.dyn.Invalidate()
}

// initSparse sizes the active-set state and the grade cache for a freshly
// compiled problem.
func (e *Engine) initSparse() {
	e.inc = NewIncidence(e.p)
	e.fpMu = make([]float64, len(e.inc.taskRes))
	e.fpCong = make([]bool, len(e.inc.taskRes))
	e.ctlSolved = make([]bool, len(e.p.Tasks))
	e.ctlStable = make([]bool, len(e.p.Tasks))
	e.latChanged = make([]bool, len(e.p.Tasks))
	e.priceStable = make([]bool, len(e.p.Resources))
	e.sumValid = make([]bool, len(e.p.Resources))
	e.shardSkipped = make([]uint64, e.nshards)
	e.grade = make([]taskGrade, len(e.p.Tasks))
	e.graded = make([]bool, len(e.p.Tasks))
	e.invalidateSparse()
}

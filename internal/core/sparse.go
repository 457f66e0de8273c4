package core

import "lla/internal/workload"

// The active set (DESIGN.md §11). Near the fixed point LLA's floating-point
// updates literally stop changing bits. Step therefore skips a controller's
// solve when its observed prices are bitwise what its previous solve saw AND
// that solve left the controller's own state — latencies, path prices, step
// sizes — bitwise unchanged, and skips a resource's reprice when no
// contributing share changed AND the previous gradient step was likewise a
// no-op. Both are deterministic state machines S' = F(S, x): after
// F(S, x) == S, re-running F on the same x reproduces S and every cached
// output, so Step's snapshots are byte-identical to an iteration that skips
// nothing (the tests' denseStep) under every Workers count. Any write to S
// or the problem data outside Step must go through Engine.invalidateSparse.

// Incidence is the CSR-style index of the bipartite task/resource structure,
// built once at engine construction: which distinct resources a task's
// controller observes (the mu/congested slots it fingerprints), and which
// distinct tasks contribute shares to a resource (the dirty-propagation
// fan-in of its price update). Both directions are flat int32 arrays so the
// per-Step scans stay cache-dense and allocation-free. It is exported for
// structure-aware consumers outside the engine — the fleet partitioner walks
// it to compute balanced min-cut shard assignments (SHARDING.md).
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

// ResourceTasks returns the distinct tasks contributing shares to resource
// ri, in first-appearance order. The returned slice aliases the index;
// callers must not mutate it.
func (inc *Incidence) ResourceTasks(ri int) []int32 {
	return inc.resTask[inc.resTaskOff[ri]:inc.resTaskOff[ri+1]]
}

// NewIncidence builds both CSR directions from the compiled problem.
func NewIncidence(p *Problem) Incidence {
	return buildIncidence(len(p.Tasks), len(p.Resources), p.NumSubtasks(),
		func(ti int, _ []int32) []int32 { return p.Tasks[ti].Res })
}

// NewWorkloadIncidence builds the index NewIncidence(Compile(w)) would,
// without compiling: resources are numbered as in w.Resources. The workload
// must have passed Validate (every subtask's resource is defined).
func NewWorkloadIncidence(w *workload.Workload) Incidence {
	resIdx := make(map[string]int, len(w.Resources))
	for i, r := range w.Resources {
		resIdx[r.ID] = i
	}
	return buildIncidence(len(w.Tasks), len(w.Resources), w.TotalSubtasks(),
		func(ti int, buf []int32) []int32 {
			buf = buf[:0]
			for _, s := range w.Tasks[ti].Subtasks {
				buf = append(buf, int32(resIdx[s.Resource]))
			}
			return buf
		})
}

// buildIncidence builds both directions from resOf, which returns task ti's
// per-subtask resource indices (it may fill and return buf).
func buildIncidence(nt, nr, nsub int, resOf func(ti int, buf []int32) []int32) Incidence {
	inc := Incidence{
		taskResOff: make([]int32, nt+1),
		taskRes:    make([]int32, 0, nsub),
		resTaskOff: make([]int32, nr+1),
	}
	mark := make([]int32, nr) // 1 + the last task seen on the resource
	var buf []int32
	for ti := 0; ti < nt; ti++ {
		inc.taskResOff[ti] = int32(len(inc.taskRes))
		buf = resOf(ti, buf)
		for _, ri := range buf {
			if mark[ri] != int32(ti+1) {
				mark[ri] = int32(ti + 1)
				inc.taskRes = append(inc.taskRes, ri)
				inc.resTaskOff[ri+1]++
			}
		}
	}
	inc.taskResOff[nt] = int32(len(inc.taskRes))

	// The other direction is the transpose: tasks are compiled in order, so a
	// resource's contributors in first-appearance order are ascending.
	for ri := 0; ri < nr; ri++ {
		inc.resTaskOff[ri+1] += inc.resTaskOff[ri]
	}
	inc.resTask = make([]int32, len(inc.taskRes))
	next := mark
	copy(next, inc.resTaskOff)
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
	// contributing share changed and the projected gradient was at its
	// fixed point.
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

// invalidateSparse drops every cached fingerprint and fixed-point flag. Any
// mutation of the problem data or controller/agent state outside Step —
// availability changes, model-error corrections, min-share updates,
// workload replacement — must call it: the skip contract is "inputs
// identical AND state untouched", and out-of-band writes break the second
// half invisibly.
func (e *Engine) invalidateSparse() {
	for i := range e.ctlSolved {
		e.ctlSolved[i] = false
		e.ctlStable[i] = false
		e.latChanged[i] = true
	}
	for i := range e.agentStable {
		e.agentStable[i] = false
		e.sumValid[i] = false
	}
	// Accelerated price dynamics carry iterate history (Anderson's mixing
	// window); an out-of-band change invalidates it for the same reason it
	// invalidates the fingerprints — extrapolating across the discontinuity
	// would be meaningless.
	if e.dyn != nil {
		e.dyn.Invalidate()
	}
}

// initSparse sizes the active-set state for a freshly compiled problem.
func (e *Engine) initSparse() {
	e.inc = NewIncidence(e.p)
	e.fpMu = make([]float64, len(e.inc.taskRes))
	e.fpCong = make([]bool, len(e.inc.taskRes))
	e.ctlSolved = make([]bool, len(e.p.Tasks))
	e.ctlStable = make([]bool, len(e.p.Tasks))
	e.latChanged = make([]bool, len(e.p.Tasks))
	e.agentStable = make([]bool, len(e.p.Resources))
	e.sumValid = make([]bool, len(e.p.Resources))
	e.shardSkipped = make([]uint64, e.nshards)
	e.invalidateSparse()
}

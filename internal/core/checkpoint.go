package core

import (
	"fmt"
	"math"

	"lla/internal/price"
)

// Engine checkpointing (DESIGN.md §13). EngineState is the complete
// serializable dual state of a running engine: everything that influences
// the trajectory of future Steps. Restoring it into a freshly built engine
// over the same compiled problem and config resumes the run bitwise — every
// subsequent Snapshot is byte-identical to the uninterrupted run's, under
// every Workers count and every price solver.
//
// What is deliberately NOT captured, because Step reconstructs it from the
// captured state before reading it: the per-Step price snapshot e.mu
// (copied from the live prices at the top of every Step), and the per-subtask
// shares — each always equals the share at the current latency (Solve
// rewrites one whenever its latency moves), so RestoreState recomputes them
// from the restored latencies bit-for-bit, and with them each resource's
// interior-share sum (the curvature numerator).

// EngineState is a deep-copied checkpoint of an Engine's optimizer state.
// Slices indexed per task hold one inner slice per compiled task, in
// compiled order; per-resource slices follow Problem.Resources order; the
// fingerprint slices follow the CSR incidence layout, which is rebuilt
// deterministically from the compiled problem.
type EngineState struct {
	// Iteration is the completed-iteration count.
	Iteration int

	// LatMs, Lambda and PathGamma are each controller's latency assignment,
	// path prices, and path step sizes.
	LatMs     [][]float64
	Lambda    [][]float64
	PathGamma [][]float64

	// ErrMs carries each subtask's model-error correction: SetErrorMs writes
	// only the compiled problem (never the source workload), so an engine
	// rebuilt from the workload would silently lose it without this.
	ErrMs [][]float64

	// Mu is each resource's price; ShareSums/Congested the cached
	// previous-iteration resource state.
	Mu        []float64
	ShareSums []float64
	Congested []bool

	// Sparse active-set state: the controller input fingerprints (incidence
	// layout) and the per-controller/per-resource fixed-point flags. Restoring
	// them verbatim — rather than invalidating — is what keeps the first
	// post-restore Step identical to the uninterrupted one: the skip contract
	// is exact, so a restored bit-identical state satisfies it identically.
	FpMu        []float64
	FpCong      []bool
	CtlSolved   []bool
	CtlStable   []bool
	LatChanged  []bool
	PriceStable []bool
	SumValid    []bool
	Sparse      SparseStats

	// Dyn is the price solver's internal state (step sizes, safeguard and
	// history); DynDelta is the last round's largest price move.
	Dyn      price.DynamicsState
	DynDelta float64
}

// CaptureState deep-copies the engine's full optimizer state. Call it
// between Steps (the same discipline as the Set* mutators); the engine is
// not touched.
func (e *Engine) CaptureState() EngineState {
	st := EngineState{
		Iteration:   e.iter,
		LatMs:       make([][]float64, len(e.p.Tasks)),
		Lambda:      make([][]float64, len(e.p.Tasks)),
		PathGamma:   make([][]float64, len(e.p.Tasks)),
		ErrMs:       make([][]float64, len(e.p.Tasks)),
		Mu:          append([]float64(nil), e.price...),
		ShareSums:   append([]float64(nil), e.shareSums...),
		Congested:   append([]bool(nil), e.congested...),
		FpMu:        append([]float64(nil), e.fpMu...),
		FpCong:      append([]bool(nil), e.fpCong...),
		CtlSolved:   append([]bool(nil), e.ctlSolved...),
		CtlStable:   append([]bool(nil), e.ctlStable...),
		LatChanged:  append([]bool(nil), e.latChanged...),
		PriceStable: append([]bool(nil), e.priceStable...),
		SumValid:    append([]bool(nil), e.sumValid...),
		Sparse:      e.sstats,
		Dyn:         price.CaptureDynamics(e.dyn),
		DynDelta:    e.dynDelta,
	}
	for ti := range e.p.Tasks {
		c := e.Controller(ti)
		st.LatMs[ti] = append([]float64(nil), c.LatMs...)
		st.Lambda[ti] = append([]float64(nil), c.Lambda...)
		st.PathGamma[ti] = append([]float64(nil), c.gamma...)
		st.ErrMs[ti] = append([]float64(nil), e.p.Tasks[ti].ErrMs...)
	}
	return st
}

// RestoreState loads a captured state into this engine. The engine must be
// freshly built over the same workload structure and config the checkpoint
// was taken under (the recover package rebuilds it from the checkpoint's
// embedded workload); any shape or solver mismatch is an error and leaves no
// guarantee about the engine's state — rebuild before retrying. Workers may
// differ freely: it is bitwise-neutral.
func (e *Engine) RestoreState(st EngineState) error {
	if len(st.LatMs) != len(e.p.Tasks) || len(st.Lambda) != len(e.p.Tasks) ||
		len(st.PathGamma) != len(e.p.Tasks) || len(st.ErrMs) != len(e.p.Tasks) {
		return fmt.Errorf("core: checkpoint has %d tasks, engine has %d", len(st.LatMs), len(e.p.Tasks))
	}
	if nr := len(e.price); len(st.Mu) != nr || len(st.ShareSums) != nr || len(st.Congested) != nr ||
		len(st.PriceStable) != nr || len(st.SumValid) != nr {
		return fmt.Errorf("core: checkpoint has %d resources, engine has %d", len(st.Mu), nr)
	}
	if len(st.FpMu) != len(e.fpMu) || len(st.FpCong) != len(e.fpCong) {
		return fmt.Errorf("core: checkpoint fingerprint layout (%d slots) does not match engine (%d)", len(st.FpMu), len(e.fpMu))
	}
	if len(st.CtlSolved) != len(e.p.Tasks) || len(st.CtlStable) != len(e.p.Tasks) ||
		len(st.LatChanged) != len(e.p.Tasks) {
		return fmt.Errorf("core: checkpoint controller flags sized %d, engine has %d tasks", len(st.CtlSolved), len(e.p.Tasks))
	}
	for ti := range e.p.Tasks {
		c := e.Controller(ti)
		if len(st.LatMs[ti]) != len(c.LatMs) || len(st.ErrMs[ti]) != len(c.LatMs) {
			return fmt.Errorf("core: checkpoint task %d has %d subtasks, engine has %d", ti, len(st.LatMs[ti]), len(c.LatMs))
		}
		if len(st.Lambda[ti]) != len(c.Lambda) || len(st.PathGamma[ti]) != len(c.Lambda) {
			return fmt.Errorf("core: checkpoint task %d has %d paths, engine has %d", ti, len(st.Lambda[ti]), len(c.Lambda))
		}
		if !e.cfg.Step.Adaptive {
			for pi, gamma := range st.PathGamma[ti] {
				if gamma != e.cfg.Step.Gamma {
					return fmt.Errorf("core: task %d path %d: fixed step %v cannot restore gamma %v", ti, pi, e.cfg.Step.Gamma, gamma)
				}
			}
		}
	}
	if err := checkValues(&st); err != nil {
		return err
	}
	if err := price.RestoreDynamics(e.dyn, st.Dyn); err != nil {
		return err
	}

	for ti := range e.p.Tasks {
		c := e.Controller(ti)
		for si, errMs := range st.ErrMs[ti] {
			// ErrMs first: refreshBounds reads it, and the restored latencies
			// below must not be re-clamped against stale bounds.
			e.p.Tasks[ti].ErrMs[si] = errMs
			e.p.refreshBounds(ti, si)
		}
		copy(c.LatMs, st.LatMs[ti])
		copy(c.Lambda, st.Lambda[ti])
		copy(c.gamma, st.PathGamma[ti])
		// The shares must be those of the restored latencies: a restored
		// clean resource reuses them verbatim in the next serial reduction.
		e.p.sharesInto(c.shares, ti, c.LatMs, true)
	}
	copy(e.price, st.Mu)
	copy(e.shareSums, st.ShareSums)
	for ri := range e.inner {
		_, e.inner[ri] = e.demand(ri)
	}
	copy(e.congested, st.Congested)
	copy(e.fpMu, st.FpMu)
	copy(e.fpCong, st.FpCong)
	copy(e.ctlSolved, st.CtlSolved)
	copy(e.ctlStable, st.CtlStable)
	copy(e.latChanged, st.LatChanged)
	copy(e.priceStable, st.PriceStable)
	copy(e.sumValid, st.SumValid)
	e.sstats = st.Sparse
	e.dynDelta = st.DynDelta
	e.iter = st.Iteration
	return nil
}

// checkValues refuses values no run produces: anything non-finite, a
// resource price outside [0, price.MaxPrice], a negative path price or a
// step size ≤ 0. Resumed, any of them would poison every later price.
func checkValues(st *EngineState) error {
	const big = math.MaxFloat64
	bad := ""
	check := func(name string, v []float64, lo, hi float64) {
		for _, x := range v {
			if bad == "" && !(x >= lo && x <= hi) {
				bad = fmt.Sprintf("%s value %v outside [%v, %v]", name, x, lo, hi)
			}
		}
	}
	check("Mu", st.Mu, 0, price.MaxPrice)
	check("FpMu", st.FpMu, 0, price.MaxPrice)
	check("ShareSums", st.ShareSums, -big, big)
	check("DynDelta", []float64{st.DynDelta}, -big, big)
	for ti := range st.LatMs {
		check("LatMs", st.LatMs[ti], -big, big)
		check("ErrMs", st.ErrMs[ti], -big, big)
		check("Lambda", st.Lambda[ti], 0, big)
		check("PathGamma", st.PathGamma[ti], math.SmallestNonzeroFloat64, big)
	}
	if bad != "" {
		return fmt.Errorf("core: checkpoint %s", bad)
	}
	return nil
}

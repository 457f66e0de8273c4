package core

import (
	"lla/internal/workload"
)

// Config returns the engine's resolved configuration (after WithDefaults).
// Layers above the engine — admission control, placement — read it to price
// candidates under the same weight mode and defaults the engine runs with.
func (e *Engine) Config() Config { return e.cfg }

// CurrentWorkload returns a deep copy of the workload the engine is
// currently optimizing, with every runtime mutation baked in. The compiled
// problem — not the source workload — is authoritative for resource
// availabilities (SetAvailability updates the problem in place without
// writing back), so the copy re-reads them from the problem; minimum-share
// floors are already written through to the source by SetMinShare. Admission
// control builds candidate workloads from this copy so a trial optimization
// sees exactly the world the live engine does.
func (e *Engine) CurrentWorkload() *workload.Workload {
	w := e.p.src.Clone()
	for ri := range e.p.Resources {
		w.Resources[ri].Availability = e.p.Resources[ri].Availability
	}
	return w
}

// Fork returns an independent engine warm-started from the live state: the
// fork optimizes a deep copy of the current workload with the same config,
// and its latencies, path prices, resource prices and model-error
// corrections match the original exactly, so its next Step produces the
// same iterate the original's would. The fork shares no mutable state with
// the original — trial optimizations (the admission controller's
// sufficiency gate) can ReplaceWorkload and iterate freely without
// disturbing the running system. The fork's iteration counter starts at
// zero (so trial convergence cost reads directly off its snapshots) and its
// adaptive step sizes start fresh. Close the fork when done with it.
func (e *Engine) Fork() (*Engine, error) {
	next, err := NewEngine(e.CurrentWorkload(), e.cfg)
	if err != nil {
		return nil, err
	}
	for ti := range e.p.Tasks {
		for si, errMs := range e.p.Tasks[ti].ErrMs {
			// ErrMs lives only in the compiled problem (SetErrorMs does not
			// touch the source workload), so carry it explicitly.
			next.p.Tasks[ti].ErrMs[si] = errMs
			next.p.refreshBounds(ti, si)
		}
	}
	copy(next.lat, e.lat)
	copy(next.lambda, e.lambda)
	copy(next.price, e.price)
	next.refreshResourceState()
	return next, nil
}

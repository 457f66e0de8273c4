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

// ReplaceWorkload swaps the engine's workload for a new one — tasks may
// join, leave or change structure — while warm-starting the optimizer from
// the current state via CarryFrom: resource prices carry over by resource
// ID, and the latencies and path prices of tasks that survive (same name,
// same subtask names, same path count) carry over as well. The paper's
// system runs continuously as applications come and go (Section 1);
// warm-started prices re-converge far faster than a cold restart because
// the congestion landscape of unchanged resources is already priced.
func (e *Engine) ReplaceWorkload(w *workload.Workload) error {
	next, err := NewEngine(w, e.cfg)
	if err != nil {
		return err
	}
	next.CarryFrom(e)
	// Retire the old worker pool before the overwrite: next has never
	// stepped, so its pool field is nil and the replacement engine respawns
	// workers lazily on its first parallel Step.
	e.Close()
	*e = *next
	return nil
}

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

// Adopt makes e the engine next: the swap behind a workload change on a
// live engine — tasks join, leave or change structure. The caller builds
// next over the new workload, warm-starts it with next.CarryFrom(e) and may
// run it first: admission runs its trial on next and, on accept, adopts
// the certified result instead of replaying the optimization on e. e's
// worker pool retires, next's carries over rebound to e, and e's observer
// is re-attached to next's problem, so steps after the swap are observed;
// the ones next ran before it were not. next is left empty: closing it
// afterwards is a no-op, and nothing else may use it.
// The paper's system runs continuously as applications come and go
// (Section 1); warm-started prices re-converge far faster than a cold
// restart because the congestion landscape of unchanged resources is
// already priced.
func (e *Engine) Adopt(next *Engine) {
	e.Close()
	o := e.obsv
	*e = *next
	*next = Engine{}
	// The pool's bound runShard and the certificate scratch's range function
	// were bound to next: rebind the one, rebuild the other on first use.
	if e.pool != nil {
		e.shard = e.runShard
	}
	e.cert = nil
	if o != nil {
		e.Observe(o.o)
	}
}

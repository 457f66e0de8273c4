package core

import "math"

// denseStep is the reference iteration the bitwise suites compare
// Engine.Step against: on the calling goroutine, every controller solves
// (Equations 9 and 7), every resource reduces its demand and re-prices
// (Equation 8), and nothing is flagged, cached or skipped. It drives
// the engine's own Controller and Dynamics objects and writes the
// same engine fields Step does, so Snapshot, Probe, Certify, PinPrice and the
// Set* mutators work on a dense-stepped engine — but it maintains none of the
// active-set flags, so an engine must be advanced by denseStep only or by
// Step only, never both. It drops every cached task grade, as it may move
// every task's state and every price. It shares Controller.Solve with Step; the oracle
// that does not is referenceSolve (oracle_test.go).
func denseStep(e *Engine) { denseStepObserved(e, nil) }

// denseStepObserved is denseStep with each controller's solve handed to
// solve when it is non-nil; solve must call c.Solve(e.mu, e.congested)
// itself, and may look at the controller before and after.
func denseStepObserved(e *Engine, solve func(ti int, c *Controller)) {
	e.mu = append(e.mu[:0], e.price...)
	for ti := range e.p.NumTasks() {
		if c := e.Controller(ti); solve != nil {
			solve(ti, &c)
		} else {
			c.Solve(e.mu, e.congested)
		}
	}
	e.dynDelta = 0
	for ri, mu := range e.price {
		sum, inner := e.demand(ri)
		e.shareSums[ri], e.inner[ri] = sum, inner
		if e.PinnedAt(ri) {
			e.congested[ri] = e.pinnedCong[ri]
			continue
		}
		r := &e.p.Resources[ri]
		cong := r.Congested(sum)
		e.price[ri], _ = e.dyn.StepAt(ri, mu, sum, r.Availability, Curvature(inner, mu), cong)
		e.congested[ri] = cong
		e.dynDelta = max(e.dynDelta, math.Abs(e.price[ri]-mu))
	}
	clear(e.graded)
	e.iter++
}

// stepFn advances an engine by one iteration: (*Engine).Step or denseStep.
type stepFn func(*Engine)

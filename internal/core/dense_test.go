package core

import (
	"math"

	"lla/internal/price"
)

// denseStep is the reference iteration the bitwise suites compare
// Engine.Step against: on the calling goroutine, every controller solves
// (Equations 9 and 7), every resource reduces its demand and re-prices
// (Equation 8), and nothing is fingerprinted, cached or skipped. It drives
// the engine's own Controller / GradStep / Dynamics objects and writes the
// same engine fields Step does, so Snapshot, Probe, Certify, PinPrice and the
// Set* mutators work on a dense-stepped engine — but it maintains none of the
// active-set flags, so an engine must be advanced by denseStep only or by
// Step only, never both. It shares Controller.Solve with Step; the oracle
// that does not is referenceSolve (oracle_test.go).
func denseStep(e *Engine) { denseStepObserved(e, nil) }

// denseStepObserved is denseStep with each controller's solve handed to
// solve when it is non-nil; solve must call c.Solve(e.mu, e.congested)
// itself, and may look at the controller before and after.
func denseStepObserved(e *Engine, solve func(ti int, c *Controller)) {
	copy(e.mu, e.price)
	for ti := range e.p.Tasks {
		if c := e.Controller(ti); solve != nil {
			solve(ti, &c)
		} else {
			c.Solve(e.mu, e.congested)
		}
	}
	for ri := range e.price {
		sum := e.demand(ri)
		e.shareSums[ri] = sum
		if e.PinnedAt(ri) {
			e.congested[ri] = e.pinnedCong[ri]
			continue
		}
		r := &e.p.Resources[ri]
		cong := r.Congested(sum)
		if e.dyn == nil {
			e.price[ri], _ = e.grad[ri].Update(e.price[ri], r.Availability, sum, cong)
		}
		e.congested[ri] = cong
	}
	if e.dyn != nil {
		in := price.StepInput{
			Mu:        e.mu,
			ShareSums: e.shareSums,
			Avail:     make([]float64, len(e.price)),
			Congested: e.congested,
			Curvature: make([]float64, len(e.price)),
		}
		for ri := range e.price {
			r := &e.p.Resources[ri]
			in.Avail[ri] = r.Availability
			if !e.dyn.NeedsCurvature() {
				continue
			}
			for _, g := range r.Subs {
				in.Curvature[ri] += e.p.ResponseSlope(g, e.lat[g], e.mu[ri])
			}
		}
		e.dyn.Step(in)
		e.dynDelta = 0
		for ri, mu := range e.price {
			if e.PinnedAt(ri) {
				continue
			}
			if d := math.Abs(e.mu[ri] - mu); d > e.dynDelta {
				e.dynDelta = d
			}
			e.price[ri] = e.mu[ri]
		}
	}
	e.iter++
}

// stepFn advances an engine by one iteration: (*Engine).Step or denseStep.
type stepFn func(*Engine)

package core

import (
	"math"

	"lla/internal/price"
)

// denseStep is the reference iteration the bitwise suites compare
// Engine.Step against: on the calling goroutine, every controller refreshes
// its path prices and re-solves (Equations 9 and 7), every resource reduces
// its demand and re-prices (Equation 8), and nothing is fingerprinted, cached
// or skipped. It drives the engine's own Controller / ResourceAgent /
// Dynamics objects and writes the same engine fields Step does, so Snapshot,
// Probe, Certify, PinPrice and the Set* mutators work on a dense-stepped
// engine — but it maintains none of the active-set flags, so an engine must
// be advanced by denseStep only or by Step only, never both.
func denseStep(e *Engine) {
	for ri, a := range e.agents {
		e.mu[ri] = a.Mu
	}
	for ti, c := range e.controllers {
		c.UpdatePathPrices(e.congested)
		c.AllocateLatencies(e.mu)
		c.SharesInto(e.shares[ti])
	}
	for ri, a := range e.agents {
		sum := a.ShareSumFrom(e.shares)
		e.shareSums[ri] = sum
		if e.PinnedAt(ri) {
			e.congested[ri] = e.pinnedCong[ri]
			continue
		}
		if e.dyn == nil {
			a.UpdatePrice(sum)
		}
		e.congested[ri] = a.Congested(sum)
	}
	if e.dyn != nil {
		in := price.StepInput{
			Mu:        e.mu,
			ShareSums: e.shareSums,
			Avail:     make([]float64, len(e.agents)),
			Congested: e.congested,
			Curvature: make([]float64, len(e.agents)),
		}
		for ri := range e.agents {
			r := &e.p.Resources[ri]
			in.Avail[ri] = r.Availability
			if !e.dyn.NeedsCurvature() {
				continue
			}
			for _, sub := range r.Subs {
				in.Curvature[ri] += e.p.ResponseSlope(sub[0], sub[1], e.controllers[sub[0]].LatMs[sub[1]], e.mu[ri])
			}
		}
		e.dyn.Step(in)
		e.dynDelta = 0
		for ri, a := range e.agents {
			if e.PinnedAt(ri) {
				continue
			}
			if d := math.Abs(e.mu[ri] - a.Mu); d > e.dynDelta {
				e.dynDelta = d
			}
			a.Mu = e.mu[ri]
		}
	}
	e.iter++
}

// stepFn advances an engine by one iteration: (*Engine).Step or denseStep.
type stepFn func(*Engine)

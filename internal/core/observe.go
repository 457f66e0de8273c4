package core

import (
	"math"

	"lla/internal/obs"
)

// obsHandles caches everything the per-iteration publication needs so the
// observed hot path performs no registry lookups: the observer itself plus
// metric handles resolved once at attach time.
type obsHandles struct {
	o   *obs.Observer
	em  *obs.EngineMetrics
	res []*obs.ResourceMetrics
	sm  *obs.SparseMetrics
	// kkt is the reused residual-vector scratch: publishObs computes the
	// Equation 7 residuals once per iteration into it and derives the
	// max/mean summary from the vector, keeping observed Steps
	// allocation-free after the buffer's first growth.
	kkt []float64
	// lastSparse remembers the cumulative sparse counters at the previous
	// publication so the monotone lla_sparse_* counters advance by deltas.
	lastSparse SparseStats
	// slv carries the price-dynamics metric set; lastFallbacks remembers
	// the cumulative safeguard-fallback count at the previous publication
	// (same delta pattern as lastSparse).
	slv           *obs.SolverMetrics
	lastFallbacks uint64
}

// Observe attaches the observability channels to the engine; nil detaches.
// With nothing attached Step pays a single nil-check (the steady-state
// iteration stays allocation-free — see the alloc regression tests); with an
// Observer attached, every Step publishes an IterationSample to the
// Recorder and refreshes the registered gauges, and the engine emits trace
// events on convergence and runtime workload changes.
//
// Like the Set* mutators, Observe must be called from the goroutine driving
// Step. The channels themselves may be read concurrently: the provided
// recorders and sinks are safe for concurrent readers, and gauges/counters
// are atomic.
func (e *Engine) Observe(o *obs.Observer) {
	if o == nil {
		e.obsv = nil
		return
	}
	h := &obsHandles{o: o, lastSparse: e.sstats}
	if o.Metrics != nil {
		h.em = obs.NewEngineMetrics(o.Metrics)
		for ri := range e.p.Resources {
			h.res = append(h.res, obs.NewResourceMetrics(o.Metrics, e.p.Resources[ri].ID))
		}
		h.sm = obs.NewSparseMetrics(o.Metrics)
		h.slv = obs.NewSolverMetrics(o.Metrics, string(e.cfg.PriceSolver))
		h.lastFallbacks = e.SolverFallbacks()
	}
	e.obsv = h
}

// emit forwards a trace event when an observer is attached.
func (e *Engine) emit(ev obs.Event) {
	if e.obsv != nil {
		e.obsv.o.Emit(ev)
	}
}

// publishObs pushes the completed iteration's telemetry to the attached
// channels. It runs on the driving goroutine after the shard join, so it
// reads the same frozen state the reduction produced.
func (e *Engine) publishObs() {
	h := e.obsv
	pr := e.Probe()
	// One residual-vector pass feeds both the summary gauges and the
	// per-iteration sample; KKTResidualsInto reuses h.kkt's capacity so the
	// observed Step performs no allocation at steady state.
	h.kkt = e.KKTResidualsInto(h.kkt)
	kktMax, kktMean, kktCount := summarize(h.kkt)

	if h.sm != nil {
		cur := e.sstats
		h.sm.SkippedSolves.Add(int64(cur.SkippedSolves - h.lastSparse.SkippedSolves))
		h.sm.ExecutedSolves.Add(int64(cur.ExecutedSolves - h.lastSparse.ExecutedSolves))
		h.sm.CleanResources.Add(int64(cur.CleanResources - h.lastSparse.CleanResources))
		h.sm.RepricedResources.Add(int64(cur.RepricedResources - h.lastSparse.RepricedResources))
		h.lastSparse = cur
	}

	if h.slv != nil {
		h.slv.Rounds.Inc()
		fb := e.SolverFallbacks()
		h.slv.Fallbacks.Add(int64(fb - h.lastFallbacks))
		h.lastFallbacks = fb
		resid := e.dynDelta
		if e.dyn == nil {
			// Gradient paths leave e.mu holding the pre-update snapshot, so
			// the last round's price movement is recoverable directly.
			resid = 0
			for ri, a := range e.agents {
				if d := math.Abs(a.Mu - e.mu[ri]); d > resid {
					resid = d
				}
			}
		}
		h.slv.Residual.Set(resid)
	}

	if h.em != nil {
		h.em.Iterations.Inc()
		h.em.Utility.Set(pr.Utility)
		h.em.KKTMax.Set(kktMax)
		h.em.MaxResourceViolation.Set(pr.MaxResourceViolation)
		h.em.MaxPathViolation.Set(pr.MaxPathViolationFrac)
		for ri, rm := range h.res {
			avail := e.p.Resources[ri].Availability
			rm.ShareSum.Set(e.shareSums[ri])
			rm.Availability.Set(avail)
			rm.Utilization.Set(e.shareSums[ri] / avail)
			rm.Price.Set(e.agents[ri].Mu)
		}
	}

	rec := h.o.Recorder
	if rec == nil {
		return
	}
	s := rec.Begin(e.iter)
	if s == nil {
		return
	}
	s.Iteration = e.iter
	s.Utility = pr.Utility
	s.MaxResourceViolation = pr.MaxResourceViolation
	s.MaxPathViolationFrac = pr.MaxPathViolationFrac
	s.KKTMax, s.KKTMean, s.KKTCount = kktMax, kktMean, kktCount
	s.Mu = s.Mu[:0]
	s.ShareSums = s.ShareSums[:0]
	s.Avail = s.Avail[:0]
	s.Gamma = s.Gamma[:0]
	for ri, a := range e.agents {
		s.Mu = append(s.Mu, a.Mu)
		s.ShareSums = append(s.ShareSums, e.shareSums[ri])
		s.Avail = append(s.Avail, e.p.Resources[ri].Availability)
		s.Gamma = append(s.Gamma, a.StepGamma())
	}
	s.Lambda = s.Lambda[:0]
	for _, c := range e.controllers {
		s.Lambda = append(s.Lambda, c.Lambda...)
	}
	s.KKT = append(s.KKT[:0], h.kkt...)
	rec.Commit(s)
}

// summarize reduces a residual vector to the max/mean/count summary that
// KKTStats would compute, from an already-materialized vector.
func summarize(res []float64) (max, mean float64, n int) {
	sum := 0.0
	for _, r := range res {
		sum += r
		if r > max {
			max = r
		}
	}
	if len(res) > 0 {
		mean = sum / float64(len(res))
	}
	return max, mean, len(res)
}

// kktResidual returns the normalized Equation 7 stationarity residual of
// subtask (ti, si) given the task's current curve slope, and whether the
// subtask is interior (bound-active subtasks need not be stationary).
func (e *Engine) kktResidual(ti, si int, slope float64) (float64, bool) {
	pt := &e.p.Tasks[ti]
	c := e.controllers[ti]
	lat := c.LatMs[si]
	lo, hi := pt.LatMinMs[si], pt.LatMaxMs[si]
	if lat <= lo*(1+1e-6) || lat >= hi*(1-1e-6) {
		return 0, false
	}
	lambdaSum := 0.0
	for _, pi := range pt.PathsThrough[si] {
		lambdaSum += c.Lambda[pi]
	}
	mu := e.agents[pt.Res[si]].Mu
	resid := pt.Weights[si]*slope - lambdaSum - mu*pt.Share[si].Deriv(lat)
	scale := math.Max(1, math.Abs(lambdaSum)+math.Abs(pt.Weights[si]*slope))
	return math.Abs(resid) / scale, true
}

// KKTStats summarizes the Equation 7 residuals over interior subtasks —
// the per-iteration convergence signal the observability layer records —
// without allocating. n is the number of interior subtasks; with n == 0
// every subtask is bound-active and max/mean are 0.
func (e *Engine) KKTStats() (max, mean float64, n int) {
	sum := 0.0
	for ti := range e.p.Tasks {
		slope := e.p.Tasks[ti].Curve.Slope(e.controllers[ti].aggregate())
		for si := range e.controllers[ti].LatMs {
			if r, ok := e.kktResidual(ti, si, slope); ok {
				sum += r
				if r > max {
					max = r
				}
				n++
			}
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return max, mean, n
}

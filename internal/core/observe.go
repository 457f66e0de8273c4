package core

import (
	"math"

	"lla/internal/obs"
	"lla/internal/share"
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
	// One residual pass feeds both the summary gauges and the per-iteration
	// sample; it reuses h.kkt's capacity so the observed Step performs no
	// allocation at steady state.
	f := e.kktScan(kktFold{all: h.kkt[:0], collect: true})
	h.kkt = f.all
	kktMax, kktMean, kktCount := f.max, f.mean(), f.n

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
		h.slv.Residual.Set(e.dynDelta)
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
			rm.Price.Set(e.price[ri])
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
	for ri, mu := range e.price {
		s.Mu = append(s.Mu, mu)
		s.ShareSums = append(s.ShareSums, e.shareSums[ri])
		s.Avail = append(s.Avail, e.p.Resources[ri].Availability)
		s.Gamma = append(s.Gamma, e.dyn.Gamma(ri))
	}
	s.Lambda = append(s.Lambda[:0], e.lambda...)
	s.KKT = append(s.KKT[:0], h.kkt...)
	rec.Commit(s)
}

// kktFold accumulates Equation 7 residuals over interior subtasks: their
// maximum, sum and count, and — when collect is set — the residuals
// themselves.
type kktFold struct {
	max, sum float64
	n        int
	collect  bool
	all      []float64
}

// mean returns the mean residual, 0 when every subtask is bound-active.
func (f kktFold) mean() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sum / float64(f.n)
}

// kktScan folds every task into f.
func (e *Engine) kktScan(f kktFold) kktFold {
	p := e.p
	for ti := range p.Tasks {
		p.taskKKT(ti, e.taskLat(ti), e.lambda[p.pathOff[ti]:p.pathOff[ti+1]], e.price, math.NaN(), &f)
	}
	return f
}

// taskKKT folds into f the normalized Equation 7 stationarity residual of
// every interior subtask of task ti (bound-active subtasks need not be
// stationary) at latencies lat, path prices lambda and resource prices mu
// (indexed like Resources). It stops early, reporting false, at the first
// residual >= stop; a NaN stop never stops.
func (p *Problem) taskKKT(ti int, lat, lambda, mu []float64, stop float64, f *kktFold) bool {
	lo, hi := p.subOff[ti], p.subOff[ti+1]
	weight, cost, errMs, res := p.weight[lo:hi], p.cost[lo:hi], p.errMs[lo:hi], p.res[lo:hi]
	latMin, latMax := p.latMin[lo:hi], p.latMax[lo:hi]
	toff, through := p.throughOff[lo:hi+1], p.through
	slope := p.consts[ti].slope
	if !p.consts[ti].constSlope {
		slope = p.Tasks[ti].Curve.Slope(p.aggregate(ti, lat))
	}
	// The fold runs in locals: through f every residual would wait on the
	// previous one's store.
	worst, sum, n := f.max, f.sum, f.n
	ok := true
	for si, l := range lat {
		if !interior(l, latMin[si], latMax[si]) {
			continue
		}
		lambdaSum := pathPriceSum(lambda, through, toff, si)
		ws := weight[si] * slope
		b := share.Budget(l, errMs[si])
		resid := ws - lambdaSum - mu[res[si]]*(-cost[si]/(b*b))
		r := math.Abs(resid) / max(1, math.Abs(lambdaSum)+math.Abs(ws))
		sum += r
		n++
		if r > worst {
			worst = r
		}
		if f.collect {
			f.all = append(f.all, r)
		}
		if r >= stop {
			ok = false
			break
		}
	}
	f.max, f.sum, f.n = worst, sum, n
	return ok
}

// KKTStats summarizes the Equation 7 residuals over interior subtasks —
// the per-iteration convergence signal the observability layer records —
// without allocating. n is the number of interior subtasks; with n == 0
// every subtask is bound-active and max/mean are 0.
func (e *Engine) KKTStats() (max, mean float64, n int) {
	f := e.kktScan(kktFold{})
	return f.max, f.mean(), f.n
}

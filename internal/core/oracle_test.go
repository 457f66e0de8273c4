package core

import (
	"fmt"
	"math"
	"testing"

	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/utility"
	"lla/internal/workload"
)

// refTask is one task's problem data and controller state held the
// straightforward way — per-task slices built from the workload, paths as
// [][]int, a share.WCETLag per subtask, a step size per path ramped by
// price.Ramp — and
// referenceSolve is the controller iteration written over them as three
// separate passes. It is the oracle for Controller.Solve and shares none of
// its code or layout: denseStep drives the engine's own Controller, so only
// this catches a wrong fused kernel.
type refTask struct {
	curve      utility.Curve
	criticalMs float64
	weights    []float64
	paths      [][]int
	through    [][]int
	res        []int
	share      []share.WCETLag
	latMin     []float64
	latMax     []float64

	lat       []float64
	lambda    []float64
	pathGamma []float64
	shares    []float64

	baseGamma   float64
	priceScaled bool
	// newton steps path prices by newtonStep where its model holds.
	newton bool
	// noOnePass drops the one-pass exit: every solve bisects.
	noOnePass bool

	hits *refHits
}

// refHits counts the branches the oracle suite must have been through.
type refHits struct {
	free, released, clampLo, clampHi, interior, congestedPath, multiRound int
	// newtonStep counts path prices Newton moved, newtonFallback the paths
	// that took Equation 9 under Newton.
	newtonStep, newtonFallback int
}

// newRefTask mirrors controller c of engine e from the workload. Bounds and
// error terms are inputs of the solve, not results of it; sync re-reads
// them, so mutators applied to the engine reach the reference too.
func newRefTask(t *testing.T, e *Engine, ti int, hits *refHits) *refTask {
	t.Helper()
	w, cfg := e.p.Workload(), e.cfg
	tk := w.Tasks[ti]
	weights, err := tk.Weights(cfg.WeightMode)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := tk.Paths()
	if err != nil {
		t.Fatal(err)
	}
	n := len(tk.Subtasks)
	r := &refTask{
		curve: w.Curves[tk.Name], criticalMs: tk.CriticalMs, weights: weights, paths: paths,
		through: make([][]int, n), res: make([]int, n), share: make([]share.WCETLag, n),
		latMin: make([]float64, n), latMax: make([]float64, n),
		lat: append([]float64(nil), e.Controller(ti).LatMs...), lambda: make([]float64, len(paths)),
		shares:    make([]float64, n),
		baseGamma: cfg.Step.Gamma, priceScaled: cfg.Step.Adaptive, newton: cfg.PriceSolver == price.SolverNewton, hits: hits,
	}
	for pi, path := range paths {
		r.pathGamma = append(r.pathGamma, cfg.Step.Gamma)
		for _, s := range path {
			r.through[s] = append(r.through[s], pi)
		}
	}
	for si, s := range tk.Subtasks {
		r.res[si] = e.ResourceIndex(s.Resource)
		r.share[si] = share.WCETLag{ExecMs: s.ExecMs, LagMs: w.Resources[r.res[si]].LagMs}
	}
	r.sync(e, ti)
	r.cacheShares()
	return r
}

// cacheShares writes every share as the engine's share cache holds it:
// negated while the subtask is bound-active.
func (r *refTask) cacheShares() {
	for si, lat := range r.lat {
		r.shares[si] = r.share[si].Share(lat)
		if lat <= r.latMin[si]*(1+1e-6) || lat >= r.latMax[si]*(1-1e-6) {
			r.shares[si] = -r.shares[si]
		}
	}
}

func (r *refTask) sync(e *Engine, ti int) {
	p := e.p
	for si, errMs := range p.row(ti, p.errMs) {
		r.share[si].ErrMs = errMs
	}
	copy(r.latMin, p.row(ti, p.latMin))
	copy(r.latMax, p.row(ti, p.latMax))
}

func (r *refTask) aggregate() float64 {
	sum := 0.0
	for si, w := range r.weights {
		sum += w * r.lat[si]
	}
	return sum
}

// pathSum is path pi's latency sum at lat, and wMin the least weight on it.
func (r *refTask) pathSum(pi int, lat []float64) (sum, wMin float64) {
	wMin = math.Inf(1)
	for _, s := range r.paths[pi] {
		sum += lat[s]
		wMin = math.Min(wMin, r.weights[s])
	}
	return sum, wMin
}

// newtonStep is path pi's Newton step from the latencies lat at slope: the
// price scale x = λ + w_min·|f'| moves to where the interior subtasks'
// latencies less their error terms, responding as a power of x with the
// exponent their closed-form response gives, meet the critical time less
// the rest of the path. ok is false where that model does not hold
// (Equation 9 then).
func (r *refTask) newtonStep(pi int, lat []float64, slope float64) (next float64, ok bool) {
	l := r.lambda[pi]
	sum, wMin := r.pathSum(pi, lat)
	if l == 0 && sum <= r.criticalMs || price.InBand(sum, r.criticalMs) {
		return l, true
	}
	fixed, free, resp := 0.0, 0.0, 0.0
	for _, s := range r.paths[pi] {
		if lat[s] <= r.latMin[s]*(1+1e-6) || lat[s] >= r.latMax[s]*(1-1e-6) {
			fixed += lat[s]
			continue
		}
		lambdaSum := 0.0
		for _, q := range r.through[s] {
			lambdaSum += r.lambda[q]
		}
		e := r.share[s].ErrMs
		fixed, free = fixed+e, free+(lat[s]-e)
		resp += (lat[s] - e) / (lambdaSum - r.weights[s]*slope)
	}
	x := l + wMin*math.Abs(slope)
	if r.criticalMs <= fixed || resp <= 0 || x <= 0 {
		return l, false
	}
	return clamp(price.PowerStep(x, free, r.criticalMs-fixed, 2*free/(x*resp))-wMin*math.Abs(slope), 0, price.MaxPrice), true
}

// updatePathPrices is the path-price half of price computation: Equation 9,
// or under Newton, where its model holds at the entry latencies, newtonStep
// at mu: at most four passes over the paths from the latencies solved there,
// each path that moves re-solving its subtasks before the next path steps,
// until a pass moves nothing. The entry latencies are restored after.
func (r *refTask) updatePathPrices(mu []float64, congestedRes []bool) bool {
	slope := r.curve.Slope(r.aggregate())
	changed, pending := false, false
	for pi, path := range r.paths {
		sum := 0.0
		pathCongested := false
		wMin := math.Inf(1)
		for _, s := range path {
			sum += r.lat[s]
			if congestedRes != nil && congestedRes[r.res[s]] {
				pathCongested = true
			}
			if w := r.weights[s]; w < wMin {
				wMin = w
			}
		}
		if sum > r.criticalMs*(1+CongestionMargin) {
			pathCongested = true
		}
		if pathCongested {
			r.hits.congestedPath++
		}
		gamma := r.pathGamma[pi]
		if r.priceScaled {
			gamma = price.Ramp(gamma, r.baseGamma, pathCongested)
		}
		if gamma != r.pathGamma[pi] {
			r.pathGamma[pi] = gamma
			changed = true
		}
		scale := r.lambda[pi] + wMin*math.Abs(slope)
		if r.priceScaled && gamma < scale/2 {
			gamma = scale / 2
		}
		if cap := math.Max(r.baseGamma, 2*scale); gamma > cap {
			gamma = cap
		}
		ok := false
		if r.newton {
			var next float64
			next, ok = r.newtonStep(pi, r.lat, slope)
			pending = pending || ok && (r.lambda[pi] > 0 || next > 0)
			if !ok {
				r.hits.newtonFallback++
			}
		}
		if next := price.UpdatePath(r.lambda[pi], gamma, sum, r.criticalMs); !ok && next != r.lambda[pi] {
			r.lambda[pi], changed = next, true
		}
	}
	if !pending {
		return changed
	}
	entry := append([]float64(nil), r.lat...)
	r.solveAt(mu, slope)
	for n, moved := 0, true; moved && n < 4; n++ {
		moved = false
		for pi, path := range r.paths {
			if next, ok := r.newtonStep(pi, r.lat, slope); ok && next != r.lambda[pi] {
				r.lambda[pi], moved, changed = next, true, true
				r.hits.newtonStep++
				for _, s := range path {
					r.lat[s] = r.solveSub(s, mu, slope)
				}
			}
		}
	}
	copy(r.lat, entry)
	return changed
}

// solveAt is the latency solve (Section 4.2, Equation 7) at one utility
// slope: it writes every latency and returns their aggregate.
func (r *refTask) solveAt(mu []float64, slope float64) float64 {
	for si := range r.lat {
		r.lat[si] = r.solveSub(si, mu, slope)
	}
	return r.aggregate()
}

// solveSub is subtask si's latency from Equation 7 at slope.
func (r *refTask) solveSub(si int, mu []float64, slope float64) float64 {
	lambdaSum := 0.0
	for _, pi := range r.through[si] {
		lambdaSum += r.lambda[pi]
	}
	denom := lambdaSum - r.weights[si]*slope
	muR := mu[r.res[si]]
	var lat float64
	switch {
	case muR <= 0:
		lat = r.latMin[si]
		r.hits.free++
	case denom <= 1e-12:
		lat = r.latMax[si]
		r.hits.released++
	default:
		sf := r.share[si]
		lat = sf.ErrMs + safeSqrt(muR*(sf.ExecMs+sf.LagMs)/denom)
		switch {
		case lat < r.latMin[si]:
			r.hits.clampLo++
		case lat > r.latMax[si]:
			r.hits.clampHi++
		default:
			r.hits.interior++
		}
	}
	return clamp(lat, r.latMin[si], r.latMax[si])
}

// aggregateOf is Σ w_s·lat_s over the given latencies.
func (r *refTask) aggregateOf(lat []float64) float64 {
	sum := 0.0
	for si, w := range r.weights {
		sum += w * lat[si]
	}
	return sum
}

// allocateLatencies is the latency-allocation step (Section 4.2, Equation
// 7): one pass at the entry aggregate's slope, kept when it reproduces that
// aggregate (or a slope bitwise equal to its own); otherwise the aggregate a
// with g(a) = a, g(a) the aggregate solveAt returns at slope f'(a), found by
// bisecting between the entry aggregate and the pass's until no double lies
// strictly between the ends. With noOnePass it bisects the whole
// [Σw·latMin, Σw·latMax] instead.
func (r *refTask) allocateLatencies(mu []float64) bool {
	latPrev := append([]float64(nil), r.lat...)
	agg := r.aggregate()
	slope := r.curve.Slope(agg)
	next := r.solveAt(mu, slope)
	lo, hi := math.Min(agg, next), math.Max(agg, next)
	if r.noOnePass {
		lo, hi = r.aggregateOf(r.latMin), r.aggregateOf(r.latMax)
	} else if math.Abs(next-agg) < 1e-9*(1+math.Abs(agg)) || r.curve.Slope(next) == slope {
		return changed(r.lat, latPrev)
	}
	r.hits.multiRound++
	for {
		m := lo + (hi-lo)/2
		if m <= lo || m >= hi {
			break
		}
		g := r.solveAt(mu, r.curve.Slope(m))
		if g == m {
			break
		}
		if g > m {
			lo = m
		} else {
			hi = m
		}
	}
	return changed(r.lat, latPrev)
}

// changed reports whether any latency moved bitwise.
func changed(lat, prev []float64) bool {
	for si := range lat {
		if lat[si] != prev[si] {
			return true
		}
	}
	return false
}

// referenceSolve is the controller half of an iteration as three passes:
// path prices from the entry latencies, the latency solve, then every share.
func referenceSolve(r *refTask, mu []float64, congested []bool) (priceChanged, latChanged bool) {
	priceChanged = r.updatePathPrices(mu, congested)
	latChanged = r.allocateLatencies(mu)
	r.cacheShares()
	return priceChanged, latChanged
}

// referenceCertificate grades the engine's current point from Equation 7,
// reading the workload and the per-task views rather than the flat arrays:
// the dense maxima Certify must report when it runs to the end.
func referenceCertificate(e *Engine) Certificate {
	var c Certificate
	for ri := range e.p.Resources {
		if e.PinnedAt(ri) {
			continue
		}
		demand := 0.0
		for _, g := range e.p.Resources[ri].Subs {
			ti, si := e.p.SubtaskAt(g)
			demand += e.p.Share(ti, si).Share(e.Controller(ti).LatMs[si])
		}
		c.MaxResourceViolation = math.Max(c.MaxResourceViolation, demand-e.p.Resources[ri].Availability)
	}
	p := e.p
	for ti, tk := range p.Workload().Tasks {
		ctl := e.Controller(ti)
		weights, latMin, latMax := p.row(ti, p.weight), p.row(ti, p.latMin), p.row(ti, p.latMax)
		agg := 0.0
		for si, w := range weights {
			agg += w * ctl.LatMs[si]
		}
		slope := p.curves[ti].Slope(agg)
		paths, _ := tk.Paths()
		for si, lat := range ctl.LatMs {
			if lat <= latMin[si]*(1+1e-6) || lat >= latMax[si]*(1-1e-6) {
				continue
			}
			lambdaSum := 0.0
			for pi, path := range paths {
				for _, s := range path {
					if s == si {
						lambdaSum += ctl.Lambda[pi]
					}
				}
			}
			resid := weights[si]*slope - lambdaSum - e.MuAt(int(p.res[p.subOff[ti]+int32(si)]))*p.Share(ti, si).Deriv(lat)
			scale := math.Max(1, math.Abs(lambdaSum)+math.Abs(weights[si]*slope))
			c.KKTMax = math.Max(c.KKTMax, math.Abs(resid)/scale)
		}
		for _, path := range paths {
			sum := 0.0
			for _, s := range path {
				sum += ctl.LatMs[s]
			}
			c.MaxPathViolationFrac = math.Max(c.MaxPathViolationFrac, (sum-tk.CriticalMs)/tk.CriticalMs)
		}
	}
	return c
}

// oracleCurve returns the curve family member for a task with critical time
// cMs. The piecewise-linear one starts flat, so its tasks solve with slope 0
// and no path price: the denom <= 1e-12 branch.
func oracleCurve(t *testing.T, family string, cMs float64) utility.Curve {
	t.Helper()
	switch family {
	case "linear":
		return utility.Linear{K: 2, CMs: cMs}
	case "neg-latency":
		return utility.NegLatency{}
	case "quadratic":
		return utility.Quadratic{A: 2 * cMs, B: 0.5 / cMs}
	case "exp-penalty":
		return utility.ExpPenalty{A: 2 * cMs, B: 1, Tau: cMs / 3}
	case "piecewise-linear":
		c, err := utility.NewPiecewiseLinear([]float64{0, cMs / 4, cMs / 2, cMs}, []float64{2 * cMs, 2 * cMs, 1.5 * cMs, 0})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Fatalf("unknown curve family %q", family)
	return nil
}

func requireBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%x), reference %v (%x)", what, i, got[i], got[i], want[i], want[i])
		}
	}
}

// oracleConfigs are the serial engine configurations the oracle suite runs:
// both step policies under both solvers.
func oracleConfigs() (cfgs []Config) {
	for _, solver := range price.Solvers() {
		for _, step := range []StepPolicy{{Gamma: 0.5}, {Adaptive: true, Gamma: 1}} {
			cfgs = append(cfgs, Config{Workers: 1, Step: step, PriceSolver: solver})
		}
	}
	return cfgs
}

// TestSolveMatchesReference compares Controller.Solve with referenceSolve
// bit for bit — every latency, path price, path step size, share and both
// change flags, at every solve of every iteration — and Certify's complete
// maxima with referenceCertificate, on seeded chain and DAG workloads under
// every curve family, both step policies and both solvers, with error terms
// installed, one price pinned at 0 (the free-resource branch), one pinned
// congested at a price that clamps at the upper bound, and an availability
// cut mid-run.
func TestSolveMatchesReference(t *testing.T) {
	const steps = 60
	var hits refHits
	constSlope := map[string]bool{"linear": true, "neg-latency": true}
	for _, family := range []string{"linear", "neg-latency", "quadratic", "exp-penalty", "piecewise-linear"} {
		for _, chain := range []bool{true, false} {
			for _, cfg := range oracleConfigs() {
				for seed := int64(0); seed < 3; seed++ {
					name := fmt.Sprintf("%s/chain=%v/adaptive=%v/%s/seed=%d", family, chain, cfg.Step.Adaptive, cfg.PriceSolver, seed)
					wcfg := workload.DefaultRandomConfig(seed)
					wcfg.SlackFactor, wcfg.ChainOnly = 10, chain
					w, err := workload.Random(wcfg)
					if err != nil {
						t.Fatal(err)
					}
					multiPath := false
					for _, tk := range w.Tasks {
						w.Curves[tk.Name] = oracleCurve(t, family, tk.CriticalMs)
						paths, _ := tk.Paths()
						multiPath = multiPath || len(paths) > 1
					}
					if multiPath == chain {
						t.Fatalf("%s: multi-path tasks = %v", name, multiPath)
					}
					e, err := NewEngine(w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for ti := range e.p.NumTasks() {
						if got := e.p.consts[ti].constSlope; got != constSlope[family] {
							t.Fatalf("%s: task %d constSlope = %v", name, ti, got)
						}
					}
					setErr := func(ti, si int, errMs float64) {
						if err := e.SetErrorMs(e.p.taskName(ti), e.p.subtaskName(ti, si), errMs); err != nil {
							t.Fatal(err)
						}
					}
					setErr(0, 0, 0.3)
					setErr(1, 1, -0.2)
					if err := e.PinPrice(0, 0, false); err != nil {
						t.Fatal(err)
					}
					if err := e.PinPrice(1, 1e9, true); err != nil {
						t.Fatal(err)
					}
					refs := make([]*refTask, e.p.NumTasks())
					for ti := range refs {
						refs[ti] = newRefTask(t, e, ti, &hits)
					}
					for it := 0; it < steps; it++ {
						if it == steps/2 {
							setErr(2, 0, 0.15)
							if err := e.SetAvailability(e.p.Resources[2].ID, 0.6); err != nil {
								t.Fatal(err)
							}
						}
						denseStepObserved(e, func(ti int, c *Controller) {
							r := refs[ti]
							r.sync(e, ti)
							wantPrice, wantLat := referenceSolve(r, e.mu, e.congested)
							gotPrice, gotLat := c.Solve(e.mu, e.congested)
							at := fmt.Sprintf("%s iteration %d task %d", name, it, ti)
							if gotPrice != wantPrice || gotLat != wantLat {
								t.Fatalf("%s: Solve reported (price %v, lat %v), reference (%v, %v)", at, gotPrice, gotLat, wantPrice, wantLat)
							}
							requireBitsEqual(t, at+" LatMs", c.LatMs, r.lat)
							requireBitsEqual(t, at+" Lambda", c.Lambda, r.lambda)
							requireBitsEqual(t, at+" shares", c.shares, r.shares)
							requireBitsEqual(t, at+" path step sizes", c.gamma, r.pathGamma)
						})
						got, _ := e.Certify(math.Inf(1), math.Inf(1))
						if want := referenceCertificate(e); got != want {
							t.Fatalf("%s iteration %d: Certify %+v, reference %+v", name, it, got, want)
						}
					}
					e.Close()
				}
			}
		}
	}
	if hits.free == 0 || hits.released == 0 || hits.clampLo == 0 || hits.clampHi == 0 ||
		hits.interior == 0 || hits.congestedPath == 0 || hits.multiRound == 0 ||
		hits.newtonStep == 0 || hits.newtonFallback == 0 {
		t.Errorf("the suite missed a branch of the solve: %+v", hits)
	}
}

// TestMutatorsWriteThroughOneStore: there is one copy of each error term and
// each bound. After every mutator the value expected from the workload is
// what the flat arrays, the kernel (against the reference, which reads the
// same arrays), Certify, Snapshot().Shares, ShareByName and a checkpoint
// round-trip all see.
func TestMutatorsWriteThroughOneStore(t *testing.T) {
	const ti, si = 1, 1
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, e *Engine)
		// errMs is the error term the subtask must end up with.
		errMs float64
	}{
		{"SetAvailability", func(t *testing.T, e *Engine) {
			ri := e.p.res[e.p.subOff[ti]+si]
			if err := e.SetAvailability(e.p.Resources[ri].ID, 0.7); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"SetErrorMs", func(t *testing.T, e *Engine) {
			if err := e.SetErrorMs(e.p.taskName(ti), e.p.subtaskName(ti, si), 0.4); err != nil {
				t.Fatal(err)
			}
		}, 0.4},
		{"SetMinShare", func(t *testing.T, e *Engine) {
			if err := e.SetMinShare(e.p.taskName(ti), e.p.subtaskName(ti, si), 0.2); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"ReplaceWorkload", func(t *testing.T, e *Engine) {
			// An error term set before the replacement must not survive it:
			// the new problem is compiled from the new workload alone.
			if err := e.SetErrorMs(e.p.taskName(ti), e.p.subtaskName(ti, si), 0.4); err != nil {
				t.Fatal(err)
			}
			w := e.CurrentWorkload()
			w.Tasks[ti].Subtasks[si].ExecMs *= 1.5
			w.Tasks[ti].CriticalMs *= 0.9
			w.Tasks[ti].Subtasks[si].MinShare = 0.15
			if err := replaceWorkload(e, w); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(workload.Base(), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 30; i++ {
				denseStep(e)
			}
			tc.mutate(t, e)

			// What the workload (with the availability the engine holds) says
			// the subtask's model and bounds are.
			w := e.CurrentWorkload()
			sub := w.Tasks[ti].Subtasks[si]
			res := w.Resources[e.ResourceIndex(sub.Resource)]
			model := share.WCETLag{ExecMs: sub.ExecMs, LagMs: res.LagMs, ErrMs: tc.errMs}
			latMin := model.LatencyFor(res.Availability)
			latMax := w.Tasks[ti].CriticalMs
			if sub.MinShare > 0 {
				latMax = math.Min(latMax, model.LatencyFor(sub.MinShare))
			}
			latMax = math.Max(latMax, latMin)
			g := e.p.subOff[ti] + si
			for _, v := range []struct {
				what      string
				got, want float64
			}{
				{"error term", e.p.errMs[g], tc.errMs},
				{"cost", e.p.cost[g], sub.ExecMs + res.LagMs},
				{"lower bound", e.p.latMin[g], latMin},
				{"upper bound", e.p.latMax[g], latMax},
			} {
				if math.Float64bits(v.got) != math.Float64bits(v.want) {
					t.Errorf("%s = %v, workload says %v", v.what, v.got, v.want)
				}
			}
			if got := e.p.Share(ti, si); got != model {
				t.Errorf("Problem.Share = %+v, workload says %+v", got, model)
			}

			// The kernel and the certificate, one iteration on.
			var hits refHits
			refs := make([]*refTask, e.p.NumTasks())
			for i := range refs {
				refs[i] = newRefTask(t, e, i, &hits)
				copy(refs[i].lambda, e.Controller(i).Lambda)
				copy(refs[i].pathGamma, e.Controller(i).gamma)
			}
			denseStepObserved(e, func(i int, c *Controller) {
				referenceSolve(refs[i], e.mu, e.congested)
				c.Solve(e.mu, e.congested)
				requireBitsEqual(t, fmt.Sprintf("task %d LatMs", i), c.LatMs, refs[i].lat)
				requireBitsEqual(t, fmt.Sprintf("task %d shares", i), c.shares, refs[i].shares)
			})
			got, _ := e.Certify(math.Inf(1), math.Inf(1))
			if want := referenceCertificate(e); got != want {
				t.Errorf("Certify %+v, reference %+v", got, want)
			}

			// The reporting surface.
			lat := e.Controller(ti).LatMs[si]
			if got, want := e.Snapshot().Shares[ti][si], model.Share(lat); got != want {
				t.Errorf("Snapshot().Shares = %v, want %v", got, want)
			}
			if got, err := e.ShareByName(e.p.taskName(ti), sub.Name); err != nil || got != model.Share(lat) {
				t.Errorf("ShareByName = %v, %v; want %v", got, err, model.Share(lat))
			}

			// A checkpoint carries the error term into an engine rebuilt from
			// the workload, which then sees the same problem.
			st := checkpointSection(t, e)
			restored, err := NewEngine(w, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if err := readSection(restored, st); err != nil {
				t.Fatal(err)
			}
			rp := restored.p
			if rp.errMs[g] != e.p.errMs[g] || rp.latMin[g] != e.p.latMin[g] || rp.latMax[g] != e.p.latMax[g] {
				t.Errorf("restored engine sees (%v, [%v, %v]), original (%v, [%v, %v])",
					rp.errMs[g], rp.latMin[g], rp.latMax[g], e.p.errMs[g], e.p.latMin[g], e.p.latMax[g])
			}
			denseStep(e)
			denseStep(restored)
			var a, b Snapshot
			e.SnapshotInto(&a)
			restored.SnapshotInto(&b)
			requireSnapshotsBitwiseEqual(t, e.Iteration(), &a, &b)
		})
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Certificate holds the three maxima of the KKT stopping rule shared by
// RunUntilKKT and the fleet's shard sweeps.
type Certificate struct {
	// KKTMax is the worst normalized Equation 7 residual over interior
	// subtasks (KKTStats' max).
	KKTMax float64
	// MaxResourceViolation is max_r (Σshare − B_r) over the resources whose
	// price the engine owns, clamped at 0. Pinned resources are excluded:
	// their prices are an external iterate (the fleet aggregator's), and
	// while it is still searching, local demand against an underpriced
	// boundary resource legitimately exceeds capacity. Without pins this is
	// Probe's MaxResourceViolation.
	MaxResourceViolation float64
	// MaxPathViolationFrac matches Probe.MaxPathViolationFrac.
	MaxPathViolationFrac float64
}

// merge is the certificate over c's items and o's: a maximum is exact and
// does not depend on the order it is taken in, and neither side holds a NaN.
func (c Certificate) merge(o Certificate) Certificate {
	return Certificate{
		KKTMax:               max(c.KKTMax, o.KKTMax),
		MaxResourceViolation: max(c.MaxResourceViolation, o.MaxResourceViolation),
		MaxPathViolationFrac: max(c.MaxPathViolationFrac, o.MaxPathViolationFrac),
	}
}

// certScan is the pooled certificate's scratch, built on the first pooled
// Certify like Engine.shard: the bound range function the pool calls, the
// tolerances of the call in flight, the flag a witness raises and each
// range's result.
type certScan struct {
	run         func(int)
	kktTol, tol float64
	found       atomic.Bool
	slots       []certSlot
}

// certSlot is one range's result: its maxima and its witness, -1 if none.
type certSlot struct {
	c       Certificate
	witness int
}

// Certify grades the current point against the stopping rule
//
//	KKTMax < kktTol && MaxResourceViolation < tol && MaxPathViolationFrac < tol
//
// without allocating. It returns false at the first witness — a resource or
// task that alone breaks a tolerance — and remembers it. The next call
// re-checks that witness first, on the calling goroutine: while the iteration
// is still far from the fixed point the witness usually still stands, so the
// check costs O(1) and never dispatches. Past it, the scan runs as nshards
// ranges on the engine's worker pool (certRange), each folding its own
// maxima and stopping at its own first witness or as soon as another range
// has found one. With one shard the single range runs inline: the serial
// scan from the cursor on.
//
// A task is graded from its cached complete grade (taskGrade) and re-graded
// only when a write that can move the grade has cleared its bit since: an
// executed solve that moved a latency or path price (or a step size), a
// bitwise move of an observed price, a refresh of one of its resources, or
// any wholesale write (invalidateSparse, ReadCheckpoint). A grade reads
// nothing else.
// Near the fixed point almost nothing moves, so a passing check re-grades
// only the tasks that did.
//
// A true verdict has necessarily visited everything, and only then are the
// returned maxima complete. They are the ranges' maxima reduced with max,
// which is exact and order-free, so they are bitwise the values KKTStats and
// Probe report. On false the certificate covers only what was scanned.
//
// The verdict is the same boolean as the dense rule for every tolerance,
// including kktTol <= 0 or NaN (never certifies); infinite tolerances
// never short-circuit and so always yield the complete maxima. The witness
// cursor and the grades are scratch, not optimizer state: they cannot change
// a verdict and are not carried by State, CarryFrom or checkpoints. Like
// Step, Certify must be called from the goroutine driving the engine; the
// ranges write only their own tasks' grade slots.
func (e *Engine) Certify(kktTol, tol float64) (Certificate, bool) {
	c, witness := e.certSpan(e.certCursor, e.certCursor+1, kktTol, tol, nil, Certificate{})
	if witness >= 0 {
		return c, false
	}
	if e.nshards == 1 {
		var r Certificate
		r, witness = e.certRange(0, kktTol, tol, nil)
		c = c.merge(r)
	} else {
		cs := e.certScratch()
		cs.kktTol, cs.tol = kktTol, tol
		cs.found.Store(false)
		pool := e.workerPool()
		pool.Run(e.nshards, cs.run)
		for _, s := range cs.slots {
			c = c.merge(s.c)
			if witness < 0 {
				witness = s.witness
			}
		}
	}
	if witness >= 0 {
		e.certCursor = witness
		return c, false
	}
	return c, c.KKTMax < kktTol && c.MaxResourceViolation < tol && c.MaxPathViolationFrac < tol
}

// certScratch returns the pooled scan's scratch, building it on first use.
func (e *Engine) certScratch() *certScan {
	if e.cert == nil {
		cs := &certScan{slots: make([]certSlot, e.nshards)}
		cs.run = func(k int) {
			s := &cs.slots[k]
			s.c, s.witness = e.certRange(k, cs.kktTol, cs.tol, &cs.found)
		}
		e.cert = cs
	}
	return e.cert
}

// certRange scans range k of Certify's nshards: resources
// [k·nr/ns, (k+1)·nr/ns), then tasks [k·nt/ns, (k+1)·nt/ns) — runShard's
// split, each balanced on its own — as indices of Certify's space (resource
// i, or task i−nr). The range holding the cursor, which Certify has already
// checked, starts just after it and wraps, so a single range is the serial
// scan. It stops at its first witness, raising stop, or once another range
// has raised it; stop is nil when the range runs alone.
func (e *Engine) certRange(k int, kktTol, tol float64, stop *atomic.Bool) (c Certificate, witness int) {
	nr, nt, ns := len(e.price), e.p.NumTasks(), e.nshards
	rlo, rhi := k*nr/ns, (k+1)*nr/ns
	tlo, thi := nr+k*nt/ns, nr+(k+1)*nt/ns
	spans := [...][2]int{{rlo, rhi}, {tlo, thi}, {}} // in scan order
	if cur := e.certCursor; cur >= rlo && cur < rhi {
		spans = [...][2]int{{cur + 1, rhi}, {tlo, thi}, {rlo, cur}}
	} else if cur >= tlo && cur < thi {
		spans = [...][2]int{{cur + 1, thi}, {rlo, rhi}, {tlo, cur}}
	}
	for _, sp := range spans {
		if c, witness = e.certSpan(sp[0], sp[1], kktTol, tol, stop, c); witness != -1 {
			break
		}
	}
	if witness >= 0 && stop != nil {
		stop.Store(true)
	}
	return c, max(witness, -1)
}

// certSpan folds items [lo, hi) of Certify's index space into c and returns
// it with the first witness, -1 if there is none, or -2 once stop is raised.
// A task's grade is folded with CertifyTask's tests; being clamped at 0, it
// can name a different witness than CertifyTask only at a tolerance <= 0,
// which no verdict passes.
func (e *Engine) certSpan(lo, hi int, kktTol, tol float64, stop *atomic.Bool, c Certificate) (Certificate, int) {
	nr := len(e.price)
	for i := lo; i < hi; i++ {
		if stop != nil && stop.Load() {
			return c, -2
		}
		if i < nr {
			if e.PinnedAt(i) { // its price is not the engine's to certify
				continue
			}
			over := e.shareSums[i] - e.p.Resources[i].Availability
			if over > c.MaxResourceViolation {
				c.MaxResourceViolation = over
			}
			if over >= tol { // not over < tol: a NaN is no witness, as it is no maximum
				return c, i
			}
			continue
		}
		if !e.graded[i-nr] {
			e.regrade(i - nr)
		}
		g := &e.grade[i-nr]
		if g.kkt > c.KKTMax {
			c.KKTMax = g.kkt
		}
		if g.kkt >= kktTol {
			return c, i
		}
		if g.path > c.MaxPathViolationFrac {
			c.MaxPathViolationFrac = g.path
		}
		if g.path >= tol {
			return c, i
		}
	}
	return c, -1
}

// taskGrade is a task's complete grade: its worst Equation 7 residual and
// its critical-path violation fraction, each folded from 0 like a
// Certificate's maxima, hence never NaN, and the critical path the fraction
// was taken of, which Snapshot and Probe read back (Engine.scan). u is the
// task's utility at the graded latencies, NaN until scan first reads it.
type taskGrade struct{ kkt, path, cp, u float64 }

// regrade grades task ti — CertifyTask at infinite tolerances — and sets
// its bit.
func (e *Engine) regrade(ti int) {
	p, inf := e.p, math.Inf(1)
	var c Certificate
	_, cp := p.CertifyTask(ti, e.taskLat(ti), e.lambda[p.pathOff[ti]:p.pathOff[ti+1]], e.price, inf, inf, &c)
	e.grade[ti], e.graded[ti] = taskGrade{c.KKTMax, c.MaxPathViolationFrac, cp, math.NaN()}, true
}

// CertifyTask folds into c task ti's Equation 7 residuals over its interior
// subtasks and its critical-path violation at latencies lat, path prices
// lambda and resource prices mu (indexed like Resources), and reports
// whether all of them stay inside kktTol and tol, with the critical path it
// graded (NaN when a residual stopped it first). It stops at the first
// residual >= kktTol; infinite tolerances never stop and fold the task
// completely. It is the one grading of a task: Engine.Certify calls it on
// the engine's arrays, a distributed controller on its own state.
func (p *Problem) CertifyTask(ti int, lat, lambda, mu []float64, kktTol, tol float64, c *Certificate) (ok bool, cp float64) {
	f := kktFold{max: c.KKTMax}
	ok = p.taskKKT(ti, lat, lambda, mu, kktTol, &f)
	c.KKTMax = f.max
	if !ok {
		return false, math.NaN()
	}
	cp, _ = p.criticalPath(ti, lat)
	crit := p.consts[ti].criticalMs
	frac := (cp - crit) / crit
	if frac > c.MaxPathViolationFrac {
		c.MaxPathViolationFrac = frac
	}
	return !(frac >= tol), cp
}

// DualBound returns the dual bound D̂ at the engine's current prices: no
// allocation that meets every resource and path constraint has a utility
// above it, whether or not the engine has converged. With μ the resource
// prices, λ the path prices and, per task, a its aggregate at the engine's
// latencies, s = f'(a) its slope there and ℓ* the latencies Equation 7
// solves at (s, λ, μ),
//
//	D̂ = Σ_r μ_r·B_r + Σ_i [f(a) + s·(Σ w·ℓ* − a) − Σ_s μ_r(s)·share_s(ℓ*) − Σ_p λ_p·(Σ_{s∈p} ℓ*_s − C)].
//
// Each task's term is the maximum of its Lagrangian over the latency box
// (which the constraints imply) with f replaced by its tangent at a; since f
// is concave the tangent lies above it, so D̂ ≥ D(μ, λ), the dual function,
// which by weak duality bounds every feasible utility. For a constant-slope
// curve the tangent is f and D̂ = D(μ, λ). At a certified point D̂ meets the
// utility up to the constraint violations the certificate tolerates.
// Pinned prices are used as given, so on a fleet shard the bound is the
// shard's own problem's at the aggregator's boundary prices. DualBound reads
// the state and allocates one scratch row; it is off the iteration's path.
func (e *Engine) DualBound() float64 {
	return e.dual(false)
}

// Ray returns the infeasibility ray at the engine's prices: minus DualBound's
// sum with every curve zeroed, over the largest μ or λ — the rate at which
// the dual function falls along the prices. A feasible allocation leaves
// every priced constraint slack, so a positive ray proves the instance
// infeasible. It is 0 while every price is 0; like DualBound it is off the
// iteration's path.
func (e *Engine) Ray() float64 {
	scale := 0.0
	for _, v := range slices.Concat(e.price, e.lambda) {
		scale = max(scale, v)
	}
	if scale == 0 {
		return 0
	}
	return -e.dual(true) / scale
}

// dual is Σ_r μ_r·B_r plus every task's dualTerm at the engine's prices,
// with each curve's tangent at the engine's aggregate, or zeroed for the ray.
func (e *Engine) dual(ray bool) float64 {
	p := e.p
	d, row := 0.0, 0
	for ri, r := range p.Resources {
		d += e.price[ri] * r.Availability
	}
	for ti := range p.NumTasks() {
		row = max(row, int(p.subOff[ti+1]-p.subOff[ti]))
	}
	star := make([]float64, row)
	for ti := range p.NumTasks() {
		v, slope, a := 0.0, 0.0, 0.0
		if !ray {
			k, curve := p.consts[ti], p.curves[ti]
			a, slope = p.aggregate(ti, e.taskLat(ti)), k.slope
			if !k.constSlope {
				slope = curve.Slope(a)
			}
			v = curve.Value(a)
		}
		d += p.dualTerm(ti, v, slope, a, e.lambda[p.pathOff[ti]:p.pathOff[ti+1]], e.price, star)
	}
	return d
}

// dualTerm is the per-task kernel of DualBound and Ray: the maximum over
// task ti's latency box of
//
//	v + slope·(Σ w·ℓ − a) − Σ_s μ_r(s)·share_s(ℓ) − Σ_p λ_p·(Σ_{s∈p} ℓ_s − C)
//
// at path prices lambda and resource prices mu, attained at the latencies
// Equation 7 solves at the slope, which it writes into the scratch row star.
func (p *Problem) dualTerm(ti int, v, slope, a float64, lambda, mu, star []float64) float64 {
	star = star[:p.subOff[ti+1]-p.subOff[ti]]
	v += slope * (p.latenciesAt(ti, star, lambda, mu, slope) - a)
	lo := p.subOff[ti]
	for si, l := range star {
		g := lo + int32(si)
		v -= mu[p.res[g]] * p.ShareAt(g, l)
	}
	crit := p.consts[ti].criticalMs
	for pi, l := range lambda {
		sum := 0.0
		for _, s := range p.Path(ti, pi) {
			sum += star[s]
		}
		v -= l * (sum - crit)
	}
	return v
}

// SchedulabilityReport is the static test of a compiled problem
// (Problem.Schedulability). Passing it does not guarantee schedulability
// (only running LLA does, per the paper's Section 5.4), but failing it
// proves the workload infeasible without running the optimizer.
type SchedulabilityReport struct {
	// ResourceFloor[resourceID] is the least share demand the latency boxes
	// allow on a used resource.
	ResourceFloor map[string]float64
	// ResourceViolations lists resources whose floor exceeds availability.
	ResourceViolations []string
	// PathViolations lists "task/path" identifiers whose latency with every
	// subtask at its resource's full availability exceeds the critical time.
	PathViolations []string
}

// Feasible reports whether no necessary condition is violated.
func (r *SchedulabilityReport) Feasible() bool {
	return len(r.ResourceViolations) == 0 && len(r.PathViolations) == 0
}

// String summarizes the report.
func (r *SchedulabilityReport) String() string {
	if r.Feasible() {
		return "workload passes the static necessary conditions (run LLA for a sufficient test)"
	}
	return fmt.Sprintf("workload provably unschedulable: %d resource floor violation(s) %v, %d path violation(s) %v",
		len(r.ResourceViolations), r.ResourceViolations, len(r.PathViolations), r.PathViolations)
}

// Schedulability runs the static necessary conditions, the ray at unit
// prices, in one pass over the compiled latency boxes [latMin, latMax]:
// at λ = e_p it is Σ_{s∈p} latMin_s − C, positive for a path violation; at
// μ = e_r it is Σ_{s on r} floor_s − B_r, a resource violation past 1e-9.
// A floor is max(MinShare, share at latMax): a box the compiler clamped up
// to latMin reads share B_r, under a MinShare above B_r. The conditions
// ignore that a subtask cannot take its minimum on one constraint while
// leaving slack for every other, so only running LLA is sufficient.
func (p *Problem) Schedulability() *SchedulabilityReport {
	rep := &SchedulabilityReport{ResourceFloor: make(map[string]float64, len(p.Resources))}
	for ti, t := range p.src.Tasks {
		lo := p.subOff[ti]
		for si, s := range t.Subtasks {
			g := lo + int32(si)
			rep.ResourceFloor[p.Resources[p.res[g]].ID] += max(s.MinShare, p.ShareAt(g, p.latMax[g]))
		}
		for pi := range p.NumPaths(ti) {
			sum := 0.0
			for _, s := range p.Path(ti, pi) {
				sum += p.latMin[lo+s]
			}
			if sum > t.CriticalMs {
				rep.PathViolations = append(rep.PathViolations, fmt.Sprintf("%s/path%d", t.Name, pi))
			}
		}
	}
	for _, r := range p.Resources {
		if rep.ResourceFloor[r.ID] > r.Availability+1e-9 {
			rep.ResourceViolations = append(rep.ResourceViolations, r.ID)
		}
	}
	return rep
}

package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lla/internal/price"
	"lla/internal/utility"
	"lla/internal/workload"
)

// denseCertificate is the reference the short-circuiting pass must agree
// with: the three dense scans RunUntilKKT and the fleet sweep ran before
// Certify existed.
func denseCertificate(e *Engine) Certificate {
	var c Certificate
	c.KKTMax, _, _ = e.KKTStats()
	for ri := range e.price {
		if e.PinnedAt(ri) {
			continue
		}
		if over := e.shareSums[ri] - e.p.Resources[ri].Availability; over > c.MaxResourceViolation {
			c.MaxResourceViolation = over
		}
	}
	for ti := range e.p.NumTasks() {
		// Not Probe's: Probe reads the critical paths of the grades under test.
		cp, _ := e.p.criticalPath(ti, e.taskLat(ti))
		crit := e.p.consts[ti].criticalMs
		if frac := (cp - crit) / crit; frac > c.MaxPathViolationFrac {
			c.MaxPathViolationFrac = frac
		}
	}
	return c
}

// certifyWorkload is a seeded random DAG workload with every task on one
// curve family.
func certifyWorkload(t *testing.T, seed int64, family string) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultRandomConfig(seed)
	cfg.SlackFactor = 10
	w, err := workload.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		switch family {
		case "linear":
			w.Curves[tk.Name] = utility.Linear{K: cfg.UtilityK, CMs: tk.CriticalMs}
		case "quadratic":
			w.Curves[tk.Name] = utility.Quadratic{A: cfg.UtilityK * tk.CriticalMs, B: 0.5 / tk.CriticalMs}
		case "exp-penalty":
			w.Curves[tk.Name] = utility.ExpPenalty{A: cfg.UtilityK * tk.CriticalMs, B: 1, Tau: tk.CriticalMs / 3}
		default:
			t.Fatalf("unknown curve family %q", family)
		}
	}
	return w
}

// TestCertifyMatchesDenseRule asserts, at every iteration of every case,
// that Snapshot and Probe, which read the grades cached one Step earlier,
// are a from-scratch recomputation (requireSnapshotFromScratch); that the
// short-circuiting certificate reaches the dense rule's verdict,
// from the remembered witness and from a cold cursor alike; that a passing
// certificate and the infinite-tolerance scan the fleet uses on ungraded
// sweep exits both carry the dense maxima bit for bit; that a non-positive
// KKT tolerance never certifies; and, every fifth iteration, that witnesses
// planted in each of the pooled scan's ranges are found
// (requirePlantedWitnessesFound).
func TestCertifyMatchesDenseRule(t *testing.T) {
	const (
		iters  = 600
		kktTol = 1e-6
		tol    = 1e-4
	)
	inf := math.Inf(1)
	for _, family := range []string{"linear", "quadratic", "exp-penalty"} {
		for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
			for _, pins := range []bool{false, true} {
				passes, fails := 0, 0
				for seed := int64(0); seed < 4; seed++ {
					for _, workers := range []int{1, 3} {
						name := fmt.Sprintf("%s/%s/pins=%v/seed=%d/workers=%d", family, solver, pins, seed, workers)
						e, err := NewEngine(certifyWorkload(t, seed, family), Config{Workers: workers, PriceSolver: solver})
						if err != nil {
							t.Fatal(err)
						}
						if pins {
							// Underpriced, so the pinned resource stays over
							// capacity: the certificate must not count it.
							if err := e.PinPrice(0, 0.01, true); err != nil {
								t.Fatal(err)
							}
						}
						for it := 0; it < iters; it++ {
							e.Step()
							requireSnapshotFromScratch(t, fmt.Sprintf("%s iter %d", name, it), e)
							ref := denseCertificate(e)
							want := ref.KKTMax < kktTol && ref.MaxResourceViolation < tol && ref.MaxPathViolationFrac < tol

							warm := e.certCursor
							e.certCursor = 0
							_, coldOK := e.Certify(kktTol, tol)
							e.certCursor = warm
							got, ok := e.Certify(kktTol, tol)
							if ok != want || coldOK != want {
								t.Fatalf("%s iter %d: verdict warm=%v cold=%v, dense rule %v (%+v)", name, it, ok, coldOK, want, ref)
							}
							if ok && got != ref {
								t.Fatalf("%s iter %d: passing certificate %+v, dense %+v", name, it, got, ref)
							}
							if full, _ := e.Certify(inf, inf); full != ref {
								t.Fatalf("%s iter %d: full scan %+v, dense %+v", name, it, full, ref)
							}
							for _, bad := range []float64{0, -1, math.NaN()} {
								if _, ok := e.Certify(bad, tol); ok {
									t.Fatalf("%s iter %d: certified at kktTol %v", name, it, bad)
								}
							}
							if it%5 == 0 {
								requirePlantedWitnessesFound(t, fmt.Sprintf("%s iter %d", name, it), e, kktTol, tol, want)
							}
							if want {
								passes++
							} else {
								fails++
							}
						}
						if pins && e.Probe().MaxResourceViolation < tol {
							t.Errorf("%s: pinned resource not over capacity; the pins case tests nothing", name)
						}
						e.Close()
					}
				}
				if passes == 0 || fails == 0 {
					t.Errorf("%s/%s/pins=%v: %d passing and %d failing checks; want both verdicts exercised",
						family, solver, pins, passes, fails)
				}
			}
		}
	}
}

// plantWitness makes item i of Certify's index space break the rule — a
// resource one unit over capacity, or a task whose first subtask's latency
// grows by twice the critical time — and returns what undoes it. Either
// write of a latency drops the task's cached grade.
func plantWitness(e *Engine, i int) (undo func()) {
	if nr := len(e.price); i >= nr {
		ti := i - nr
		g := e.p.subOff[ti]
		old := e.lat[g]
		e.lat[g] += 2 * e.p.consts[ti].criticalMs
		e.graded[ti] = false
		return func() { e.lat[g], e.graded[ti] = old, false }
	}
	old := e.shareSums[i]
	e.shareSums[i] = e.p.Resources[i].Availability + 1
	return func() { e.shareSums[i] = old }
}

// requirePlantedWitnessesFound plants a witness at one owned resource and at
// one task of each of Certify's ranges in turn. Each must fail the check
// twice: found by the scan, then again where the cursor holds it. When the
// point itself passes (clean), the plant is the only witness and the cursor
// must land on it.
func requirePlantedWitnessesFound(t *testing.T, at string, e *Engine, kktTol, tol float64, clean bool) {
	t.Helper()
	nr, nt, ns := len(e.price), e.p.NumTasks(), e.nshards
	for k := 0; k < ns; k++ {
		var plants []int
		for ri := k * nr / ns; ri < (k+1)*nr/ns; ri++ {
			if !e.PinnedAt(ri) {
				plants = append(plants, ri)
				break
			}
		}
		if ti := k * nt / ns; ti < (k+1)*nt/ns {
			plants = append(plants, nr+ti)
		}
		for _, i := range plants {
			undo := plantWitness(e, i)
			_, scanned := e.Certify(kktTol, tol)
			landed := e.certCursor
			_, again := e.Certify(kktTol, tol)
			undo()
			if scanned || again || (clean && landed != i) {
				t.Fatalf("%s: witness %d planted in range %d: verdicts %v then %v, cursor at %d", at, i, k, scanned, again, landed)
			}
		}
	}
}

// TestCertifyZeroAllocs locks the certificate off the allocator on both of
// its paths — the O(1) failing check and the full passing scan — inline and
// on the pool.
func TestCertifyZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e, err := NewEngine(workload.Base(), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(50, nil)
		for _, tols := range [][2]float64{{1e-300, 1e-300}, {math.Inf(1), math.Inf(1)}} {
			allocs := testing.AllocsPerRun(200, func() { e.Certify(tols[0], tols[1]) })
			if allocs != 0 {
				t.Errorf("workers=%d tol=%v: Certify allocated %.1f/op, want 0", workers, tols[0], allocs)
			}
		}
		e.Close()
	}
}

// TestCertifyStandingWitnessStaysSerial: a witness still standing at the
// cursor is re-checked on the calling goroutine and wakes no worker. After
// Close the engine has no pool, and failing checks must leave it so; a
// passing scan then spawns one, which is what a dispatch would have shown.
func TestCertifyStandingWitnessStaysSerial(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(50, nil)
	e.Close()
	nr, nt := len(e.price), e.p.NumTasks()
	for _, i := range []int{0, nr - 1, nr, nr + nt - 1} {
		undo := plantWitness(e, i)
		e.certCursor = i
		for range 3 {
			if _, ok := e.Certify(1e-6, 1e-4); ok || e.certCursor != i {
				t.Fatalf("witness %d at the cursor: verdict %v, cursor moved to %d", i, ok, e.certCursor)
			}
		}
		undo()
		if e.pool != nil {
			t.Fatalf("witness %d standing at the cursor: Certify woke the pool", i)
		}
	}
	if _, ok := e.Certify(math.Inf(1), math.Inf(1)); !ok || e.pool == nil {
		t.Fatalf("passing scan: verdict %v, pool spawned %v; want a pooled pass", ok, e.pool != nil)
	}
}

// TestRunUntilKKTCertifiesDensePoint checks the loop's exit against the
// dense scans: the point it returns satisfies the rule it was asked for,
// and the run stopped at the first window of passing iterations.
func TestRunUntilKKTCertifiesDensePoint(t *testing.T) {
	const (
		kktTol = 1e-6
		tol    = 1e-4
		window = 3
	)
	ref, err := NewEngine(certifyWorkload(t, 1, "quadratic"), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantIter, stable := 0, 0
	for wantIter < 5000 && stable < window {
		ref.Step()
		wantIter++
		c := denseCertificate(ref)
		if c.KKTMax < kktTol && c.MaxResourceViolation < tol && c.MaxPathViolationFrac < tol {
			stable++
		} else {
			stable = 0
		}
	}
	e, err := NewEngine(certifyWorkload(t, 1, "quadratic"), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, ok := e.RunUntilKKT(5000, kktTol, window, tol)
	if !ok || snap.Iteration != wantIter {
		t.Fatalf("RunUntilKKT stopped at iteration %d (converged=%v), dense rule stops at %d", snap.Iteration, ok, wantIter)
	}
}

// worstInterior returns the interior subtask holding the point's worst
// Equation 7 residual, as (task, subtask).
func worstInterior(e *Engine) (wt, ws int) {
	p, worst := e.p, -1.0
	for ti := range p.NumTasks() {
		f := kktFold{collect: true}
		p.taskKKT(ti, e.taskLat(ti), e.lambda[p.pathOff[ti]:p.pathOff[ti+1]], e.price, math.NaN(), &f)
		for si, g := 0, p.subOff[ti]; g < p.subOff[ti+1]; si, g = si+1, g+1 {
			if !p.Interior(g, e.lat[g]) {
				continue
			}
			if r := f.all[0]; r > worst {
				worst, wt, ws = r, ti, si
			}
			f.all = f.all[1:]
		}
	}
	return wt, ws
}

// TestCertifyAfterOutOfBandWrites grades the point straight after every
// write that reaches an engine between Steps, with every task's grade
// cached just before it: Certify(inf, inf) must return the dense maxima bit
// for bit, and Certify(kktTol, tol) the dense verdict, with the dense maxima
// when it passes. Each write runs at an early point, where it must move the
// dense certificate (so a grade it leaves stale shows), and at a certified
// one, where a stale grade would pass a point the dense rule fails. The
// bound-moving writes make the worst interior subtask bound-active, which
// takes the maximum off it. The exit snapshot trusts the same grades and the
// share cache: Snapshot and Probe must then be a from-scratch recomputation
// (requireSnapshotFromScratch) after the write, after each of three Steps
// taken with every grade cached, after the RunUntilKKT that follows, and
// with the grades cleared — and never grade a task.
func TestCertifyAfterOutOfBandWrites(t *testing.T) {
	const (
		kktTol = 1e-6
		tol    = 1e-4
	)
	inf := math.Inf(1)
	// cached fills every grade slot and its utility and returns the point's
	// dense certificate.
	cached := func(e *Engine) Certificate {
		e.Certify(inf, inf)
		e.Probe()
		return denseCertificate(e)
	}
	type write func(t *testing.T, e *Engine, cfg Config) (graded *Engine, before Certificate)
	onWorst := func(apply func(e *Engine, name, sub string, ri int, g int32) error) write {
		return func(t *testing.T, e *Engine, _ Config) (*Engine, Certificate) {
			before := cached(e)
			ti, si := worstInterior(e)
			g := e.p.subOff[ti] + int32(si)
			if err := apply(e, e.p.taskName(ti), e.p.subtaskName(ti, si), int(e.p.res[g]), g); err != nil {
				t.Fatal(err)
			}
			return e, before
		}
	}
	writes := []struct {
		name  string
		moves bool // the write moves a grade at the early point
		apply write
	}{
		{"SetAvailability", true, onWorst(func(e *Engine, _, _ string, ri int, g int32) error {
			return e.SetAvailability(e.p.Resources[ri].ID, e.p.ShareAt(g, e.lat[g])/2)
		})},
		{"SetErrorMs", true, onWorst(func(e *Engine, name, sub string, _ int, g int32) error {
			return e.SetErrorMs(name, sub, e.lat[g])
		})},
		{"SetMinShare", true, onWorst(func(e *Engine, name, sub string, _ int, g int32) error {
			return e.SetMinShare(name, sub, min(1, 2*e.p.ShareAt(g, e.lat[g])))
		})},
		{"PinPrice moved", true, onWorst(func(e *Engine, _, _ string, ri int, _ int32) error {
			return e.PinPrice(ri, 2*e.price[ri]+1, e.congested[ri])
		})},
		{"PinPrice unmoved", false, onWorst(func(e *Engine, _, _ string, ri int, _ int32) error {
			return e.PinPrice(ri, e.price[ri], !e.congested[ri])
		})},
		{"UnpinPrice", false, func(t *testing.T, e *Engine, _ Config) (*Engine, Certificate) {
			ti, si := worstInterior(e)
			ri := int(e.p.res[e.p.subOff[ti]+int32(si)])
			if err := e.PinPrice(ri, e.price[ri], e.congested[ri]); err != nil {
				t.Fatal(err)
			}
			before := cached(e)
			e.UnpinPrice(ri)
			return e, before
		}},
		{"CarryFrom", true, func(t *testing.T, e *Engine, cfg Config) (*Engine, Certificate) {
			donor, err := NewEngine(certifyWorkload(t, 1, "quadratic"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer donor.Close()
			donor.Step()
			before := cached(e)
			e.CarryFrom(donor)
			return e, before
		}},
		{"ReplaceWorkload", true, func(t *testing.T, e *Engine, _ Config) (*Engine, Certificate) {
			before := cached(e)
			if err := replaceWorkload(e, certifyWorkload(t, 2, "quadratic")); err != nil {
				t.Fatal(err)
			}
			return e, before
		}},
		{"checkpoint restore", true, func(t *testing.T, e *Engine, cfg Config) (*Engine, Certificate) {
			fresh, err := NewEngine(certifyWorkload(t, 1, "quadratic"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := cached(fresh)
			if err := readSection(fresh, checkpointSection(t, e)); err != nil {
				t.Fatal(err)
			}
			return fresh, before
		}},
	}
	for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
		for _, workers := range []int{1, 3} {
			cfg := Config{Workers: workers, PriceSolver: solver}
			for _, w := range writes {
				for _, certified := range []bool{false, true} {
					name := fmt.Sprintf("%s/workers=%d/%s/certified=%v", solver, workers, w.name, certified)
					e, err := NewEngine(certifyWorkload(t, 1, "quadratic"), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !certified {
						e.Run(5, nil)
					} else if _, ok := e.RunUntilKKT(5000, StopKKTTol, StopWindow, StopTol); !ok {
						t.Fatalf("%s: never certified", name)
					}
					g, before := w.apply(t, e, cfg)
					ref := denseCertificate(g)
					if w.moves && !certified && ref == before {
						t.Fatalf("%s: the write left the dense certificate at %+v; the case tests nothing", name, ref)
					}
					want := ref.KKTMax < kktTol && ref.MaxResourceViolation < tol && ref.MaxPathViolationFrac < tol
					if got, ok := g.Certify(kktTol, tol); ok != want || (ok && got != ref) {
						t.Fatalf("%s: certificate %+v verdict %v, dense %+v verdict %v", name, got, ok, ref, want)
					}
					if full, _ := g.Certify(inf, inf); full != ref {
						t.Fatalf("%s: full scan %+v, dense %+v", name, full, ref)
					}
					requireSnapshotFromScratch(t, name+" after the write", g)
					for i := 0; i < 3; i++ {
						g.Certify(inf, inf)
						g.Step()
						requireSnapshotFromScratch(t, fmt.Sprintf("%s, graded, then step %d", name, i), g)
					}
					g.RunUntilKKT(500, StopKKTTol, StopWindow, StopTol)
					requireSnapshotFromScratch(t, name+" after RunUntilKKT", g)
					g.Certify(inf, inf)
					requireSnapshotFromScratch(t, name+" graded, its utilities filled and read back", g)
					for ti, ok := range g.graded {
						if !ok || math.IsNaN(g.grade[ti].u) {
							t.Fatalf("%s: task %d has no cached utility after a full Certify and a Snapshot", name, ti)
						}
					}
					for ti := range g.grade {
						g.grade[ti].u = math.NaN()
					}
					requireSnapshotFromScratch(t, name+" with the utilities cleared", g)
					clear(g.graded)
					requireSnapshotFromScratch(t, name+" with the grades cleared", g)
					if slices.Contains(g.graded, true) {
						t.Fatalf("%s: Snapshot or Probe graded a task", name)
					}
					g.Close()
					e.Close()
				}
			}
		}
	}
}

// requireSnapshotFromScratch compares e's Snapshot, the same snapshot
// refilled in place by SnapshotInto, and Probe bit for bit with the state
// recomputed from the latencies alone: each share by ShareAt, each critical
// path by criticalPath, each utility by Curve.Value, each resource's demand
// summed afresh.
func requireSnapshotFromScratch(t *testing.T, at string, e *Engine) {
	t.Helper()
	p, want := e.p, Probe{Iteration: e.iter}
	utils, cps := make([]float64, p.NumTasks()), make([]float64, p.NumTasks())
	for ti := range p.NumTasks() {
		lat := e.taskLat(ti)
		utils[ti] = p.curves[ti].Value(p.aggregate(ti, lat))
		cps[ti], _ = p.criticalPath(ti, lat)
		want.Utility += utils[ti]
		crit := p.consts[ti].criticalMs
		if frac := (cps[ti] - crit) / crit; frac > want.MaxPathViolationFrac {
			want.MaxPathViolationFrac = frac
		}
	}
	sums := make([]float64, len(p.Resources))
	for ri, r := range p.Resources {
		for _, g := range r.Subs {
			sums[ri] += p.ShareAt(g, e.lat[g])
		}
		want.MaxResourceViolation = max(want.MaxResourceViolation, sums[ri]-r.Availability)
	}
	check := func(how string, s *Snapshot) {
		same := func(what string, i int, got, want float64) { // no t.Helper: it walks the stack per call
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s %s[%d] = %x, recomputed %x", at, how, what, i, got, want)
			}
		}
		for ti := range p.NumTasks() {
			for si, l := range e.taskLat(ti) {
				g := p.subOff[ti] + int32(si)
				same("LatMs", int(g), s.LatMs[ti][si], l)
				same("Shares", int(g), s.Shares[ti][si], p.ShareAt(g, l))
			}
			same("TaskUtility", ti, s.TaskUtility[ti], utils[ti])
			same("CriticalPathMs", ti, s.CriticalPathMs[ti], cps[ti])
		}
		for ri, sum := range sums {
			same("ShareSums", ri, s.ShareSums[ri], sum)
		}
		if got := (Probe{s.Iteration, s.Utility, s.MaxResourceViolation, s.MaxPathViolationFrac}); got != want {
			t.Fatalf("%s: %s scalars %+v, recomputed %+v", at, how, got, want)
		}
	}
	s := e.Snapshot()
	check("Snapshot", &s)
	e.SnapshotInto(&s) // shaped: refills every row in place
	check("SnapshotInto", &s)
	if got := e.Probe(); got != want {
		t.Fatalf("%s: Probe %+v, recomputed %+v", at, got, want)
	}
}

// lagrangian is L(ℓ, μ, λ) = Σ f(a) − Σ_r μ_r(Σ share − B_r) − Σ_p λ_p(Σ_{s∈p} ℓ_s − C)
// at the engine's latencies and prices, summed per resource rather than per
// task as DualBound's terms are.
func lagrangian(e *Engine) float64 {
	p, l := e.p, 0.0
	for ti := range p.NumTasks() {
		lat := e.taskLat(ti)
		l += p.curves[ti].Value(p.aggregate(ti, lat))
		for pi, lp := range e.lambda[p.pathOff[ti]:p.pathOff[ti+1]] {
			sum := 0.0
			for _, s := range p.Path(ti, pi) {
				sum += lat[s]
			}
			l -= lp * (sum - p.consts[ti].criticalMs)
		}
	}
	for ri, r := range p.Resources {
		sum := 0.0
		for _, g := range r.Subs {
			sum += p.ShareAt(g, e.lat[g])
		}
		l -= e.price[ri] * (sum - r.Availability)
	}
	return l
}

// TestDualBound holds DualBound to what makes it a certificate: at every
// iterate it is at least the Lagrangian there (it is that Lagrangian's
// maximum, with each curve replaced by its tangent: a wrong slope or sign
// in the argmax fails this) and at least the certified optimum U*, and at a
// certified point it meets the utility. Each instance runs under both
// solvers: once to its certificate, once over its first 400 iterates.
func TestDualBound(t *testing.T) {
	random := func(seed int64, mixed bool, slack float64) *workload.Workload {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.MixedCurves = mixed
		if slack > 0 {
			cfg.SlackFactor = slack
		}
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	replicate := func(k int, scale float64) *workload.Workload {
		w, err := workload.Replicate(workload.Base(), k, scale)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	type dualCase struct {
		name string
		w    *workload.Workload
		// iterates: the 400-iterate sweep runs; certifies: the run reaches
		// its certificate, so U* exists; newtonOnly: it does under Newton.
		iterates, certifies, newtonOnly bool
	}
	cases := []dualCase{
		{"base", workload.Base(), true, true, false},
		{"prototype", workload.Prototype(), true, true, false},
		{"base x1 crit x4", replicate(1, 4), false, true, false},
		{"base x2 crit x8", replicate(2, 8), false, true, false},
	}
	for _, seed := range []int64{1, 2, 3, 6, 16} {
		cases = append(cases, dualCase{fmt.Sprintf("linear seed %d", seed), random(seed, false, 0), false, true, false})
	}
	for seed := int64(0); seed < 5; seed++ {
		cases = append(cases, dualCase{fmt.Sprintf("mixed seed %d slack 10", seed), random(seed, true, 10), true, true, false})
	}
	for _, seed := range []int64{1, 6, 16} {
		cases = append(cases, dualCase{fmt.Sprintf("mixed seed %d", seed), random(seed, true, 0), false, true, false})
	}
	// Mixed seeds 5, 9, 19, 34, 45 and 55 certify only under Newton, whose
	// path prices meet their critical times at every iterate. Under the
	// gradient their iterates alternate between two points, each a few
	// percent over capacity, so there is no U* and the gap at the last
	// iterate measures that violation, not the bound. Those gaps are logged;
	// the bound is still held against the Lagrangian, which it bounds at any
	// prices.
	for _, seed := range []int64{5, 9, 19, 34, 45, 55} {
		cases = append(cases, dualCase{fmt.Sprintf("mixed seed %d", seed), random(seed, true, 0), seed != 19, false, true})
	}
	for _, tc := range cases {
		for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
			name := fmt.Sprintf("%s/%s", tc.name, solver)
			e, err := NewEngine(tc.w, Config{PriceSolver: solver, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			snap, ok := e.RunUntilKKT(4000, StopKKTTol, StopWindow, StopTol)
			bound := e.DualBound()
			gap := (bound - snap.Utility) / max(1, math.Abs(snap.Utility))
			e.Close()
			switch want := tc.certifies || tc.newtonOnly && solver == price.SolverNewton; {
			case ok != want:
				t.Errorf("%s: certified %v, want %v", name, ok, want)
				continue
			case !ok:
				t.Logf("%s: not certified after %d iterations: gap %.3g", name, snap.Iteration, gap)
			case math.Abs(gap) > 1e-8:
				t.Errorf("%s: certified gap %.3g: bound %v, utility %v", name, gap, bound, snap.Utility)
			}
			if !tc.iterates {
				continue
			}
			e, err = NewEngine(tc.w, Config{PriceSolver: solver, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it <= 400; it++ {
				if it > 0 {
					e.Step()
				}
				d, l := e.DualBound(), lagrangian(e)
				if d < l-1e-12*max(1, math.Abs(l)) {
					t.Errorf("%s: iterate %d: bound %v below the Lagrangian %v", name, it, d, l)
					break
				}
				if u := snap.Utility; ok && d < u-1e-8*math.Abs(u)-1e-8 {
					t.Errorf("%s: iterate %d: bound %v below the certified optimum %v", name, it, d, u)
					break
				}
			}
			e.Close()
		}
	}
}

// TestNoOpSolveKeepsGrade: an executed solve that moves no latency, path
// price or step size keeps its task's grade. At a bitwise fixed point every
// controller is forced to solve again; the Step executes every solve, moves
// nothing and drops no grade, and the next Certify, re-grading nothing, still
// reports the dense rule's verdict and maxima bit for bit, as Probe does.
func TestNoOpSolveKeepsGrade(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(1)
	cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 50, 3, 200
	cfg.MinSubtasks, cfg.MaxSubtasks, cfg.SlackFactor, cfg.CrossFraction = 3, 7, 400, 0.05
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(w, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, ok := e.RunUntilKKT(3000, 1e-9, 3, 1e-6); !ok {
			t.Fatalf("workers %d: cold start did not certify", workers)
		}
		for e.ResetSparseStats(); ; e.ResetSparseStats() { // on to a bitwise fixed point
			if e.Step(); e.SparseStats().ExecutedSolves == 0 {
				break
			}
			if e.Iteration() > 5000 {
				t.Fatalf("workers %d: no bitwise fixed point by iteration %d", workers, e.Iteration())
			}
		}
		inf := math.Inf(1)
		e.Certify(inf, inf) // grades every task
		clear(e.ctlStable)
		price := slices.Clone(e.price)
		e.Step()
		if st := e.SparseStats(); st.ExecutedSolves != uint64(e.p.NumTasks()) || !slices.Equal(e.price, price) {
			t.Fatalf("workers %d: forced Step executed %d of %d solves, prices moved %v", workers, st.ExecutedSolves, e.p.NumTasks(), !slices.Equal(e.price, price))
		}
		if i := slices.Index(e.graded, false); i >= 0 {
			t.Fatalf("workers %d: a no-op solve dropped task %d's grade", workers, i)
		}
		want := denseCertificate(e)
		if got, _ := e.Certify(inf, inf); got != want {
			t.Fatalf("workers %d: Certify %+v, dense %+v", workers, got, want)
		}
		if p := e.Probe(); p.MaxResourceViolation != want.MaxResourceViolation || p.MaxPathViolationFrac != want.MaxPathViolationFrac {
			t.Fatalf("workers %d: Probe %+v, dense %+v", workers, p, want)
		}
		if _, ok := e.Certify(1e-9, 1e-6); ok != (want.KKTMax < 1e-9 && want.MaxResourceViolation < 1e-6 && want.MaxPathViolationFrac < 1e-6) {
			t.Fatalf("workers %d: verdict %v against dense %+v", workers, ok, want)
		}
	}
}

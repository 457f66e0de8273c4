package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lla/internal/price"
	"lla/internal/workload"
)

// sparseCases are the workloads the determinism property tests sweep: the
// paper's base workload (which sustains a limit cycle at its zero-slack
// optimum — the hardest case for skip logic because controllers keep waking
// up), the Fig 6-scale replication (which reaches a global bitwise fixed
// point), and a wider replication.
func sparseCases(t *testing.T) []struct {
	name  string
	iters int
	mk    func() *workload.Workload
} {
	t.Helper()
	rep := func(factor int, critScale float64) func() *workload.Workload {
		return func() *workload.Workload {
			w, err := workload.Replicate(workload.Base(), factor, critScale)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	return []struct {
		name  string
		iters int
		mk    func() *workload.Workload
	}{
		{"base", 500, workload.Base},
		{"fig6-x4", 400, rep(4, 8)},
		{"replicated-x16", 300, rep(16, 2)},
	}
}

// newSparsePair builds two engines over the same workload: dense runs
// single-threaded and is to be advanced by denseStep, sparse runs on the
// given worker count and is to be advanced by Step.
func newSparsePair(t *testing.T, mk func() *workload.Workload, workers int, solver price.Solver) (dense, sparse *Engine) {
	t.Helper()
	dense, err := NewEngine(mk(), Config{Workers: 1, PriceSolver: solver})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err = NewEngine(mk(), Config{Workers: workers, PriceSolver: solver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dense.Close(); sparse.Close() })
	return dense, sparse
}

// requireSnapshotsBitwiseEqual compares two engines' full snapshots — every
// latency, share, price, sum and diagnostic — with exact float equality.
func requireSnapshotsBitwiseEqual(t *testing.T, iter int, a, b *Snapshot) {
	t.Helper()
	if a.Iteration != b.Iteration || a.Utility != b.Utility ||
		a.MaxResourceViolation != b.MaxResourceViolation ||
		a.MaxPathViolationFrac != b.MaxPathViolationFrac {
		t.Fatalf("iter %d: scalar diagnostics diverged:\n dense  %+v\n sparse %+v", iter, a, b)
	}
	for ti := range a.LatMs {
		if a.TaskUtility[ti] != b.TaskUtility[ti] ||
			a.CriticalPathMs[ti] != b.CriticalPathMs[ti] {
			t.Fatalf("iter %d: task %d diagnostics diverged", iter, ti)
		}
		for si := range a.LatMs[ti] {
			if a.LatMs[ti][si] != b.LatMs[ti][si] {
				t.Fatalf("iter %d: task %d subtask %d latency diverged: dense %x sparse %x",
					iter, ti, si, a.LatMs[ti][si], b.LatMs[ti][si])
			}
			if a.Shares[ti][si] != b.Shares[ti][si] {
				t.Fatalf("iter %d: task %d subtask %d share diverged: dense %x sparse %x",
					iter, ti, si, a.Shares[ti][si], b.Shares[ti][si])
			}
		}
	}
	for ri := range a.Mu {
		if a.Mu[ri] != b.Mu[ri] {
			t.Fatalf("iter %d: resource %d mu diverged: dense %x sparse %x",
				iter, ri, a.Mu[ri], b.Mu[ri])
		}
		if a.ShareSums[ri] != b.ShareSums[ri] {
			t.Fatalf("iter %d: resource %d share sum diverged: dense %x sparse %x",
				iter, ri, a.ShareSums[ri], b.ShareSums[ri])
		}
	}
}

// TestSparseMatchesDenseBitwise is the active set's contract: Step produces
// byte-identical snapshots to the denseStep reference at every single
// iteration, for every workload, price solver and worker count. Skipping is
// only legal when re-execution would provably reproduce the same bits, so any
// divergence — even in the last ulp, even transiently — is a bug.
func TestSparseMatchesDenseBitwise(t *testing.T) {
	for _, tc := range sparseCases(t) {
		for _, workers := range []int{1, 3} {
			t.Run(tc.name, func(t *testing.T) {
				for _, solver := range price.Solvers() {
					dense, sparse := newSparsePair(t, tc.mk, workers, solver)
					var ds, ss Snapshot
					for i := 0; i < tc.iters; i++ {
						denseStep(dense)
						sparse.Step()
						dense.SnapshotInto(&ds)
						sparse.SnapshotInto(&ss)
						requireSnapshotsBitwiseEqual(t, i, &ds, &ss)
					}
					if st := sparse.SparseStats(); st.Iterations != uint64(tc.iters) {
						t.Errorf("%s: stats counted %d iterations, want %d", solver, st.Iterations, tc.iters)
					}
				}
			})
		}
	}
}

// TestSparseSkipsAtSteadyState checks the optimization actually engages: on
// the Fig 6-scale workload the trajectory freezes bitwise, after which every
// controller solve and every resource reprice must be skipped.
func TestSparseSkipsAtSteadyState(t *testing.T) {
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(600, nil) // well past the certificate (iteration 6) and the freeze (10)

	e.ResetSparseStats()
	const probe = 100
	e.Run(probe, nil)
	st := e.SparseStats()
	nt, nr := uint64(e.p.NumTasks()), uint64(len(e.price))
	if st.SkippedSolves != probe*nt {
		t.Errorf("frozen engine skipped %d/%d controller solves", st.SkippedSolves, probe*nt)
	}
	if st.CleanResources != probe*nr {
		t.Errorf("frozen engine marked %d/%d resource updates clean", st.CleanResources, probe*nr)
	}
}

// setAvailabilityGlobal is SetAvailability through the global refresh every
// mutator took before refreshResource: the new bounds, then every share,
// every resource's reduction and the whole active set, then the same event
// step on the resource's price.
func setAvailabilityGlobal(e *Engine, ri int, availability float64) {
	e.p.Resources[ri].Availability = availability
	for _, g := range e.p.Resources[ri].Subs {
		ti, _ := e.p.SubtaskAt(g)
		e.p.refreshBounds(ti, g)
	}
	e.refreshResourceState()
	e.priceEvent(ri)
}

// solvesAfterEvent counts the controller solves the first Step after an
// event on resource ri must execute: those of the controllers incident to
// ri, and of every other one that could not skip anyway — never solved, last
// solve not a fixed point, or an observed price or flag moved since. Call it
// before the event.
func solvesAfterEvent(e *Engine, ri int) uint64 {
	incident := make([]bool, e.p.NumTasks())
	for _, ti := range e.inc.resTask[e.inc.resTaskOff[ri]:e.inc.resTaskOff[ri+1]] {
		incident[ti] = true
	}
	var n uint64
	for ti := range e.p.NumTasks() {
		if incident[ti] || !e.ctlStable[ti] {
			n++
		}
	}
	return n
}

// requireEnginesBitwiseEqual compares two engines' optimizer state and every
// cache the next Step reads, bit for bit.
func requireEnginesBitwiseEqual(t *testing.T, at string, a, b *Engine) {
	t.Helper()
	for _, v := range []struct {
		what string
		a, b []float64
	}{
		{"lat", a.lat, b.lat}, {"shares", a.shares, b.shares},
		{"lambda", a.lambda, b.lambda}, {"gamma", a.gamma, b.gamma},
		{"price", a.price, b.price}, {"shareSums", a.shareSums, b.shareSums},
		{"inner", a.inner, b.inner},
	} {
		requireBitsEqual(t, at+" "+v.what, v.a, v.b)
	}
	if a.iter != b.iter || !slices.Equal(a.congested, b.congested) {
		t.Fatalf("%s: iteration %d vs %d, congestion flags %v vs %v", at, a.iter, b.iter, a.congested, b.congested)
	}
}

// TestSparseMutationsInvalidate interleaves every runtime mutation — and a
// mid-run workload replacement — with Steps, checking the engine tracks the
// denseStep reference bitwise throughout. A missing invalidation would show
// up as Step coasting on stale cached state after a mutation. A third engine
// takes every mutation through the global refresh and must stay bitwise
// equal too, while the first Step after a mutation executes exactly the
// solves solvesAfterEvent counts.
func TestSparseMutationsInvalidate(t *testing.T) {
	mk := func() *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Round r changes, by r%3, r0's availability, task1/T12's minimum share
	// or task2/T21's error term.
	subtask := map[int][2]string{1: {"task1", "T12"}, 2: {"task2", "T21"}}
	touched := func(e *Engine, round int) int {
		if round%3 == 0 {
			return e.ResourceIndex("r0")
		}
		n := subtask[round%3]
		ti, si, _ := e.findSubtask(n[0], n[1])
		return int(e.p.res[e.p.subOff[ti]+int32(si)])
	}
	mutate := func(e *Engine, round int) {
		var err error
		switch round % 3 {
		case 0:
			err = e.SetAvailability("r0", 0.7+0.05*float64(round%4))
		case 1:
			err = e.SetMinShare("task1", "T12", 0.02+0.01*float64(round%3))
		case 2:
			err = e.SetErrorMs("task2", "T21", 0.1*float64(round%5))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mutateGlobal := func(e *Engine, round int) {
		if round%3 == 0 {
			setAvailabilityGlobal(e, e.ResourceIndex("r0"), 0.7+0.05*float64(round%4))
			return
		}
		n := subtask[round%3]
		ti, si, _ := e.findSubtask(n[0], n[1])
		g := e.p.subOff[ti] + int32(si)
		if round%3 == 1 {
			e.p.Workload().Tasks[ti].Subtasks[si].MinShare = 0.02 + 0.01*float64(round%3)
		} else {
			e.p.errMs[g] = 0.1 * float64(round%5)
		}
		e.p.refreshBounds(ti, g)
		e.refreshResourceState()
	}
	for _, workers := range []int{1, 3} {
		dense, sparse := newSparsePair(t, mk, workers, price.SolverGradient)
		global, err := NewEngine(mk(), Config{Workers: workers, PriceSolver: price.SolverGradient})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(global.Close)
		step := func() {
			denseStep(dense)
			sparse.Step()
			global.Step()
		}
		var ds, ss, gs Snapshot
		for round := 0; round < 12; round++ {
			// Let the engines freeze before mutating so the invalidation,
			// not a still-hot active set, is what forces the re-solve.
			for i := 0; i < 120; i++ {
				step()
			}
			want, before := solvesAfterEvent(sparse, touched(sparse, round)), sparse.SparseStats().ExecutedSolves
			mutate(dense, round)
			mutate(sparse, round)
			mutateGlobal(global, round)
			for i := 0; i < 40; i++ {
				step()
				if got := sparse.SparseStats().ExecutedSolves - before; i == 0 && got != want {
					t.Fatalf("workers=%d round %d: the first Step executed %d solves, want %d", workers, round, got, want)
				}
				dense.SnapshotInto(&ds)
				sparse.SnapshotInto(&ss)
				global.SnapshotInto(&gs)
				requireSnapshotsBitwiseEqual(t, round*160+i, &ds, &ss)
				requireSnapshotsBitwiseEqual(t, round*160+i, &gs, &ss)
			}
			requireEnginesBitwiseEqual(t, fmt.Sprintf("workers=%d round %d", workers, round), global, sparse)
		}
		grown, err := workload.Replicate(workload.Base(), 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := replaceWorkload(dense, grown); err != nil {
			t.Fatal(err)
		}
		if err := replaceWorkload(sparse, grown); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			denseStep(dense)
			sparse.Step()
			dense.SnapshotInto(&ds)
			sparse.SnapshotInto(&ss)
			requireSnapshotsBitwiseEqual(t, 2000+i, &ds, &ss)
		}
	}
}

// TestMutatorsRestepFromCachedDemand: a mutator drops the price dynamics'
// history but keeps every resource's fixed-point flag and cached demand, so
// the next Step steps a stable resource from its cache instead of reducing
// it again. Through availability, minimum-share and error-term changes
// between Steps, under both solvers and worker counts, the engine stays
// bitwise with denseStep and with a twin that re-reduces every resource after
// each change: the same snapshots, SparseStats and SolverFallbacks, and the
// same checkpoint bytes right after the change. A restore of that checkpoint
// then runs bitwise with the engine that wrote it.
func TestMutatorsRestepFromCachedDemand(t *testing.T) {
	mk := func() *workload.Workload {
		cfg := workload.DefaultClusteredConfig(5)
		cfg.SlackFactor = 40
		w, err := workload.Clustered(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Round r changes, by r%3, a seeded resource's availability, a seeded
	// subtask's minimum share or its error term.
	mutate := func(e *Engine, round int) {
		rng := rand.New(rand.NewSource(int64(round)))
		r, task := e.p.Resources[rng.Intn(len(e.p.Resources))], e.p.Workload().Tasks[rng.Intn(e.p.NumTasks())]
		sub, v := task.Subtasks[rng.Intn(len(task.Subtasks))].Name, rng.Float64()
		var err error
		switch round % 3 {
		case 0:
			err = e.SetAvailability(r.ID, 0.5+0.5*v)
		case 1:
			err = e.SetMinShare(task.Name, sub, 0.02*v)
		case 2:
			err = e.SetErrorMs(task.Name, sub, 0.5*v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, solver := range price.Solvers() {
		for _, workers := range []int{1, 3} {
			at := fmt.Sprintf("%s workers=%d", solver, workers)
			dense, sparse := newSparsePair(t, mk, workers, solver)
			full, err := NewEngine(mk(), Config{Workers: workers, PriceSolver: solver})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(full.Close)
			var ds, ss, fs Snapshot
			kept := 0 // stable resources a change left to be stepped from their cache
			for round := 0; round < 9; round++ {
				for i := 0; i < 60; i++ {
					denseStep(dense)
					sparse.Step()
					full.Step()
				}
				stable := slices.Clone(sparse.priceStable)
				for _, e := range []*Engine{dense, sparse, full} {
					mutate(e, round)
				}
				clear(full.priceStable) // the full reprice: every resource reduces again
				if !sparse.restep || !slices.Equal(sparse.priceStable, stable) {
					t.Fatalf("%s round %d: the change moved the fixed-point flags or set no restep", at, round)
				}
				for _, ok := range stable {
					if ok {
						kept++
					}
				}
				sec := checkpointSection(t, sparse)
				if !slices.Equal(sec, checkpointSection(t, full)) {
					t.Fatalf("%s round %d: the checkpoint differs from the full reprice's", at, round)
				}
				restored, err := NewEngine(sparse.CurrentWorkload(), Config{Workers: workers, PriceSolver: solver})
				if err != nil {
					t.Fatal(err)
				}
				if err := readSection(restored, sec); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 30; i++ {
					denseStep(dense)
					sparse.Step()
					full.Step()
					restored.Step()
					if sparse.restep {
						t.Fatalf("%s round %d: a Step left restep set; every later Step would step every resource", at, round)
					}
					dense.SnapshotInto(&ds)
					sparse.SnapshotInto(&ss)
					full.SnapshotInto(&fs)
					requireSnapshotsBitwiseEqual(t, round*90+i, &ds, &ss)
					requireSnapshotsBitwiseEqual(t, round*90+i, &fs, &ss)
					requireEnginesBitwiseEqual(t, fmt.Sprintf("%s round %d step %d: restored", at, round, i), sparse, restored)
					if sparse.SparseStats() != full.SparseStats() || sparse.SolverFallbacks() != full.SolverFallbacks() {
						t.Fatalf("%s round %d step %d: stats %+v fallbacks %d, full reprice %+v fallbacks %d", at, round, i,
							sparse.SparseStats(), sparse.SolverFallbacks(), full.SparseStats(), full.SolverFallbacks())
					}
				}
				restored.Close()
			}
			if kept == 0 {
				t.Fatalf("%s: no change found a stable resource; the test steps nothing from a cache", at)
			}
		}
	}
}

// TestLocalRefreshMatchesGlobal holds SetAvailability's localized refresh to
// the global one it replaced on a clustered DAG. A twin engine takes each of
// 20 seeded capacity events through setAvailabilityGlobal; after the first
// Step that follows and after the event's RunUntilKKT the two are bitwise
// equal under every solver and worker count, and that first Step executes
// exactly the solves
// solvesAfterEvent counts. Every fourth event follows a pin lifted before a
// Step could re-derive its resource's congestion flag, which the localized
// refresh must re-derive as the global one does.
func TestLocalRefreshMatchesGlobal(t *testing.T) {
	const maxIters = 400
	mk := func() *workload.Workload {
		cfg := workload.DefaultClusteredConfig(5)
		cfg.SlackFactor = 40
		w, err := workload.Clustered(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, solver := range price.Solvers() {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s/workers=%d", solver, workers)
			local, err := NewEngine(mk(), Config{Workers: workers, PriceSolver: solver})
			if err != nil {
				t.Fatal(err)
			}
			global, err := NewEngine(mk(), Config{Workers: workers, PriceSolver: solver})
			if err != nil {
				t.Fatal(err)
			}
			both := func(f func(e *Engine)) { f(local); f(global) }
			converge := func(e *Engine) { e.RunUntilKKT(maxIters, 1e-9, 3, 1e-6) }
			both(converge)
			rng := rand.New(rand.NewSource(1))
			nr, skipped := len(local.price), uint64(0)
			for ev := 0; ev < 20; ev++ {
				ri, v := rng.Intn(nr), 0.5+0.5*rng.Float64()
				lifted := ev%4 == 3
				if lifted {
					rp := (ri + 1) % nr
					both(func(e *Engine) {
						if err := e.PinPrice(rp, 2*e.price[rp]+1, !e.congested[rp]); err != nil {
							t.Fatal(err)
						}
						e.Step()
						e.UnpinPrice(rp)
					})
				}
				want, before := solvesAfterEvent(local, ri), local.SparseStats().ExecutedSolves
				if err := local.SetAvailability(local.p.Resources[ri].ID, v); err != nil {
					t.Fatal(err)
				}
				setAvailabilityGlobal(global, ri, v)
				both((*Engine).Step)
				got := local.SparseStats().ExecutedSolves - before
				if !lifted && got != want {
					t.Fatalf("%s event %d: the first Step executed %d solves, want %d", name, ev, got, want)
				}
				skipped += uint64(local.p.NumTasks()) - got
				requireEnginesBitwiseEqual(t, fmt.Sprintf("%s event %d, first Step", name, ev), local, global)
				both(converge)
				requireEnginesBitwiseEqual(t, fmt.Sprintf("%s event %d", name, ev), local, global)
			}
			if skipped == 0 {
				t.Errorf("%s: no first Step after an event skipped a controller; the locality check tests nothing", name)
			}
			local.Close()
			global.Close()
		}
	}
}

// TestRestoredStaleFlagRefreshesLikeGlobal: pins are not checkpointed, so a
// congestion flag pinned against its resource's demand is restored stale,
// and a localized refresh on another resource must re-derive it as the
// global refresh does.
func TestRestoredStaleFlagRefreshesLikeGlobal(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(5)
	cfg.SlackFactor = 40
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		e, err := NewEngine(w, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	src, local, global := mk(), mk(), mk()
	src.RunUntilKKT(400, 1e-9, 3, 1e-6)
	if err := src.PinPrice(0, src.price[0], !src.congested[0]); err != nil {
		t.Fatal(err)
	}
	sec := checkpointSection(t, src)
	for _, e := range []*Engine{local, global} {
		if err := readSection(e, sec); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.SetAvailability(local.p.Resources[1].ID, 0.7); err != nil {
		t.Fatal(err)
	}
	setAvailabilityGlobal(global, 1, 0.7)
	requireEnginesBitwiseEqual(t, "after the refresh", local, global)
	for _, e := range []*Engine{local, global} {
		e.RunUntilKKT(400, 1e-9, 3, 1e-6)
	}
	requireEnginesBitwiseEqual(t, "re-converged", local, global)
}

// TestSkippedInputsUnmoved is the soundness oracle of the pushed skip flags:
// a controller marked stable skips its next solve, which is sound only if
// every price and congestion flag it observes is bitwise what the last
// Step's controller phase read. Checked after every Step and after every
// out-of-band write of a churn sequence — availability changes, pins that
// move a price or flip only a flag, and unpins followed by a refresh that
// re-derives the lifted flag — under the adaptive step policy, which reads
// the flags, and a fixed one, under which a flipped flag leaves a solve
// stable.
func TestSkippedInputsUnmoved(t *testing.T) {
	for _, step := range []StepPolicy{{Adaptive: true, Gamma: 1}, {Gamma: 0.5}} {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("adaptive=%v/workers=%d", step.Adaptive, workers)
			cfg := workload.DefaultClusteredConfig(5)
			cfg.SlackFactor = 40
			w, err := workload.Clustered(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(w, Config{Workers: workers, Step: step})
			if err != nil {
				t.Fatal(err)
			}
			var mu []float64 // the view of the last Step's controller phase
			var cong []bool
			check := func(at string) {
				for ti, stable := range e.ctlStable {
					for _, ri := range e.inc.TaskResources(ti) {
						if stable && (e.price[ri] != mu[ri] || e.congested[ri] != cong[ri]) {
							t.Fatalf("%s %s: controller %d will skip, but resource %d moved since its last Step", name, at, ti, ri)
						}
					}
				}
			}
			run := func(n int) {
				for i := 0; i < n; i++ {
					mu, cong = slices.Clone(e.price), slices.Clone(e.congested)
					e.Step()
					check("after a Step")
				}
			}
			run(300)
			rng, nr, skipped := rand.New(rand.NewSource(1)), len(e.price), false
			for ev := 0; ev < 40; ev++ {
				ri, rp := rng.Intn(nr), rng.Intn(nr)
				var err error
				switch ev % 4 {
				case 0:
					err = e.SetAvailability(e.p.Resources[ri].ID, 0.5+0.5*rng.Float64())
				case 1:
					err = e.PinPrice(ri, e.price[ri], !e.congested[ri])
				case 2:
					err = e.PinPrice(ri, 2*e.price[ri]+1, e.congested[ri])
				case 3:
					if err = e.PinPrice(rp, e.price[rp], !e.congested[rp]); err == nil {
						run(1)
						e.UnpinPrice(rp)
						check(fmt.Sprintf("event %d, unpinned", ev))
						err = e.SetAvailability(e.p.Resources[ri].ID, 0.5+0.5*rng.Float64())
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("event %d", ev))
				skipped = skipped || slices.Contains(e.ctlStable, true)
				run(5)
				for r := range e.price {
					e.UnpinPrice(r)
				}
			}
			if !skipped {
				t.Errorf("%s: no controller was stable after an event; the oracle tests nothing", name)
			}
			e.Close()
		}
	}
}

// TestMutatorsRefreshTouchedResource: after every mutator, each resource's
// cached demand, curvature numerator and congestion flag are those of the
// shares the mutator left, so Snapshot, Probe and Certify see an overload the
// moment it is made and the next Step's controllers read the current flag.
// SetErrorMs and SetMinShare used to leave the touched resource at its last
// reduction: an error term of 3 ms on the base workload put r0 at Σ shares
// 1.137 while ShareSums read 1.00003 and no overload showed.
func TestMutatorsRefreshTouchedResource(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(e *Engine, task, sub, res string) error
	}{
		{"SetErrorMs", func(e *Engine, task, sub, _ string) error { return e.SetErrorMs(task, sub, 3) }},
		{"SetMinShare", func(e *Engine, task, sub, _ string) error { return e.SetMinShare(task, sub, 0.6) }},
		{"SetAvailability", func(e *Engine, _, _, res string) error { return e.SetAvailability(res, 0.6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(workload.Base(), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Run(50, nil)
			p := e.Problem()
			if err := tc.mutate(e, p.taskName(0), p.subtaskName(0, 0), p.Resources[p.res[0]].ID); err != nil {
				t.Fatal(err)
			}
			s := e.Snapshot()
			over := 0.0
			for ri := range p.Resources {
				sum, inner := 0.0, 0.0
				for _, g := range p.Resources[ri].Subs {
					ti, si := p.SubtaskAt(g)
					sum += s.Shares[ti][si]
					if p.Interior(g, e.lat[g]) {
						inner += s.Shares[ti][si]
					}
				}
				if math.Abs(sum-s.ShareSums[ri]) > 1e-12 || math.Abs(inner-e.inner[ri]) > 1e-12 {
					t.Errorf("resource %d: Σ shares %v and interior %v, cached %v and %v", ri, sum, inner, s.ShareSums[ri], e.inner[ri])
				}
				if got, want := e.CongestedAt(ri), p.Resources[ri].Congested(sum); got != want {
					t.Errorf("resource %d: congestion flag %v, Σ shares say %v", ri, got, want)
				}
				over = max(over, sum-p.Resources[ri].Availability)
			}
			if math.Abs(over-s.MaxResourceViolation) > 1e-12 {
				t.Errorf("MaxResourceViolation %v, Σ shares say %v", s.MaxResourceViolation, over)
			}
		})
	}
}

// TestSparseCarryStartsInvalidated checks an engine warm-started from a
// frozen one (NewEngine + CarryFrom, as an admission trial is) re-solves
// from its warm start instead of inheriting the donor's active set, and
// still matches a dense-stepped carry of the reference bitwise.
func TestSparseCarryStartsInvalidated(t *testing.T) {
	dense, sparse := newSparsePair(t, workload.Base, 1, price.SolverGradient)
	for i := 0; i < 300; i++ {
		denseStep(dense)
		sparse.Step()
	}
	carry := func(donor *Engine) *Engine {
		e, err := NewEngine(donor.CurrentWorkload(), donor.Config())
		if err != nil {
			t.Fatal(err)
		}
		e.CarryFrom(donor)
		return e
	}
	df := carry(dense)
	defer df.Close()
	sf := carry(sparse)
	defer sf.Close()
	var ds, ss Snapshot
	for i := 0; i < 100; i++ {
		denseStep(df)
		sf.Step()
		df.SnapshotInto(&ds)
		sf.SnapshotInto(&ss)
		requireSnapshotsBitwiseEqual(t, i, &ds, &ss)
	}
}

// TestIncidenceIndex pins the CSR builder on the base workload: every
// task→resource edge has its mirror, rows are deduplicated, and offsets are
// monotone.
func TestIncidenceIndex(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	inc := e.inc
	p := e.Problem()
	for ti := range p.NumTasks() {
		row := inc.taskRes[inc.taskResOff[ti]:inc.taskResOff[ti+1]]
		seen := map[int32]bool{}
		for _, ri := range row {
			if seen[ri] {
				t.Fatalf("task %d lists resource %d twice", ti, ri)
			}
			seen[ri] = true
			// Mirror edge: resource ri must list task ti.
			found := false
			for _, tj := range inc.resTask[inc.resTaskOff[ri]:inc.resTaskOff[ri+1]] {
				if int(tj) == ti {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("resource %d missing mirror edge for task %d", ri, ti)
			}
		}
		// Every compiled subtask's resource must appear in the row.
		for _, ri := range p.res[p.subOff[ti]:p.subOff[ti+1]] {
			if !seen[int32(ri)] {
				t.Fatalf("task %d row missing resource %d", ti, ri)
			}
		}
	}
}

// TestCertifiedPointIsBitwiseFixed: once the certificate passes, Newton's
// prices stop moving bit for bit (an excess within the demand reduction's
// rounding counts as zero), so the active set fires right after
// certification — on a cold start and after an availability event — at
// every worker count.
func TestCertifiedPointIsBitwiseFixed(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(1)
	cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 50, 3, 200
	cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 3, 7, false
	cfg.SlackFactor, cfg.CrossFraction = 400, 0.05
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// skipRate is the share of solves the next n Steps skip.
	skipRate := func(e *Engine, n int) float64 {
		e.ResetSparseStats()
		e.Run(n, nil)
		st := e.SparseStats()
		return float64(st.SkippedSolves) / float64(st.SkippedSolves+st.ExecutedSolves)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e, err := NewEngine(w, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if _, ok := e.RunUntilKKT(3000, 1e-9, 3, 1e-6); !ok {
				t.Fatal("cold start did not certify")
			}
			if r := skipRate(e, 3); r < 0.99 {
				t.Errorf("3 Steps after the cold certificate skipped %.1f %% of solves, want >= 99 %%", 100*r)
			}
			for c := 0; c < 4; c++ {
				if err := e.SetAvailability(fmt.Sprintf("c%d-r0", c), cfg.Availability/2); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := e.RunUntilKKT(3000, 1e-9, 1, 1e-6); !ok {
				t.Fatal("no certificate after halving 4 resources")
			}
			if r := skipRate(e, 2); r < 0.95 {
				t.Errorf("2 Steps after the event's first certificate skipped %.1f %% of solves, want >= 95 %%", 100*r)
			}
		})
	}
}

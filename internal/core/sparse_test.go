package core

import (
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
	e.Run(600, nil) // well past the empirical freeze (~iter 115)

	e.ResetSparseStats()
	const probe = 100
	e.Run(probe, nil)
	st := e.SparseStats()
	nt, nr := uint64(len(e.p.Tasks)), uint64(len(e.price))
	if st.SkippedSolves != probe*nt {
		t.Errorf("frozen engine skipped %d/%d controller solves", st.SkippedSolves, probe*nt)
	}
	if st.CleanResources != probe*nr {
		t.Errorf("frozen engine marked %d/%d resource updates clean", st.CleanResources, probe*nr)
	}
}

// TestSparseMutationsInvalidate interleaves every runtime mutation — and a
// mid-run workload replacement — with Steps, checking the engine tracks the
// denseStep reference bitwise throughout. A missing invalidation would show
// up as Step coasting on stale cached state after a mutation.
func TestSparseMutationsInvalidate(t *testing.T) {
	mk := func() *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, workers := range []int{1, 3} {
		dense, sparse := newSparsePair(t, mk, workers, price.SolverGradient)
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
		var ds, ss Snapshot
		for round := 0; round < 12; round++ {
			// Let both engines freeze before mutating so the invalidation,
			// not a still-hot active set, is what forces the re-solve.
			for i := 0; i < 120; i++ {
				denseStep(dense)
				sparse.Step()
			}
			mutate(dense, round)
			mutate(sparse, round)
			for i := 0; i < 40; i++ {
				denseStep(dense)
				sparse.Step()
				dense.SnapshotInto(&ds)
				sparse.SnapshotInto(&ss)
				requireSnapshotsBitwiseEqual(t, round*160+i, &ds, &ss)
			}
		}
		grown, err := workload.Replicate(workload.Base(), 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := dense.ReplaceWorkload(grown); err != nil {
			t.Fatal(err)
		}
		if err := sparse.ReplaceWorkload(grown); err != nil {
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

// TestSparseForkStartsInvalidated checks a fork of a frozen engine re-solves
// from its warm start instead of inheriting the parent's active set, and
// still matches a dense-stepped fork of the reference bitwise.
func TestSparseForkStartsInvalidated(t *testing.T) {
	dense, sparse := newSparsePair(t, workload.Base, 1, price.SolverGradient)
	for i := 0; i < 300; i++ {
		denseStep(dense)
		sparse.Step()
	}
	df, err := dense.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	sf, err := sparse.Fork()
	if err != nil {
		t.Fatal(err)
	}
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
	for ti := range p.Tasks {
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
		for _, ri := range p.Tasks[ti].Res {
			if !seen[int32(ri)] {
				t.Fatalf("task %d row missing resource %d", ti, ri)
			}
		}
	}
}

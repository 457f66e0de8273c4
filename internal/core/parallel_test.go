package core

import (
	"math"
	"runtime"
	"testing"

	"lla/internal/workload"
)

// engines returns a serial and a parallel engine over the same workload
// constructor.
func engines(t *testing.T, mk func() *workload.Workload, workers int) (*Engine, *Engine) {
	t.Helper()
	serial, err := NewEngine(mk(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(mk(), Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serial.Close(); par.Close() })
	return serial, par
}

// requireBitwiseEqual compares the full optimizer state of two engines.
func requireBitwiseEqual(t *testing.T, iter int, serial, par *Engine) {
	t.Helper()
	for ti := range serial.p.NumTasks() {
		sc, pc := serial.Controller(ti), par.Controller(ti)
		for si := range sc.LatMs {
			if sc.LatMs[si] != pc.LatMs[si] {
				t.Fatalf("iter %d: task %d subtask %d latency diverged: serial %x parallel %x",
					iter, ti, si, sc.LatMs[si], pc.LatMs[si])
			}
		}
		for pi := range sc.Lambda {
			if sc.Lambda[pi] != pc.Lambda[pi] {
				t.Fatalf("iter %d: task %d path %d lambda diverged: serial %x parallel %x",
					iter, ti, pi, sc.Lambda[pi], pc.Lambda[pi])
			}
		}
	}
	for ri := range serial.price {
		if serial.price[ri] != par.price[ri] {
			t.Fatalf("iter %d: resource %d mu diverged: serial %x parallel %x",
				iter, ri, serial.price[ri], par.price[ri])
		}
	}
	su, pu := serial.Probe(), par.Probe()
	if su.Utility != pu.Utility {
		t.Fatalf("iter %d: utility diverged: serial %x parallel %x", iter, su.Utility, pu.Utility)
	}
}

// TestParallelMatchesSerialBitwise locks in the engine's central invariant:
// the sharded controller phase plus the fixed-order reduction produce a
// trajectory bitwise-identical to the serial engine, every iteration.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *workload.Workload
	}{
		{"base", workload.Base},
		{"replicated-x16", func() *workload.Workload {
			w, err := workload.Replicate(workload.Base(), 16, 2)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, par := engines(t, tc.mk, 4)
			if got := par.Workers(); got < 2 {
				t.Fatalf("parallel engine resolved to %d shards, want >= 2", got)
			}
			for i := 0; i < 500; i++ {
				serial.Step()
				par.Step()
				requireBitwiseEqual(t, i, serial, par)
			}
			ss, ps := serial.Snapshot(), par.Snapshot()
			if ss.Utility != ps.Utility || ss.MaxResourceViolation != ps.MaxResourceViolation {
				t.Fatalf("final snapshots diverged: serial %+v parallel %+v", ss, ps)
			}
		})
	}
}

// TestDynamicChangesBetweenParallelSteps interleaves every runtime mutation
// (availability, min share, model error) with parallel Steps and checks the
// trajectory still matches a serial engine driven identically. Run under
// -race this also proves the pool's happens-before edges publish the
// mutations to the shard workers.
func TestDynamicChangesBetweenParallelSteps(t *testing.T) {
	mk := func() *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	serial, par := engines(t, mk, 4)
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
	for round := 0; round < 12; round++ {
		mutate(serial, round)
		mutate(par, round)
		for i := 0; i < 40; i++ {
			serial.Step()
			par.Step()
		}
		requireBitwiseEqual(t, round*40, serial, par)
	}
}

// TestStepDoesNotAllocate proves the steady-state hot path is garbage-free
// for both the serial and the parallel engine.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w, err := workload.Replicate(workload.Base(), 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(w, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 50; i++ {
			e.Step() // warm the pool and any lazily grown stacks
		}
		if allocs := testing.AllocsPerRun(100, e.Step); allocs != 0 {
			t.Errorf("workers=%d: Step allocates %v objects per iteration, want 0", workers, allocs)
		}
	}
}

// TestProbeMatchesSnapshot checks the lightweight convergence probe agrees
// bitwise with the full snapshot's stopping-rule fields.
func TestProbeMatchesSnapshot(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.Step()
		pr, snap := e.Probe(), e.Snapshot()
		if pr.Utility != snap.Utility ||
			pr.MaxResourceViolation != snap.MaxResourceViolation ||
			pr.MaxPathViolationFrac != snap.MaxPathViolationFrac ||
			pr.Iteration != snap.Iteration {
			t.Fatalf("iter %d: probe %+v disagrees with snapshot %v", i, pr, snap)
		}
	}
}

// TestSnapshotIntoReuses checks the write-into snapshot matches the
// allocating one and stops allocating once its buffers are sized.
func TestSnapshotIntoReuses(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(50, nil)
	want := e.Snapshot()
	var got Snapshot
	e.SnapshotInto(&got)
	if got.Utility != want.Utility || got.Iteration != want.Iteration {
		t.Fatalf("SnapshotInto = %v, want %v", got, want)
	}
	for ti := range want.LatMs {
		for si := range want.LatMs[ti] {
			if got.LatMs[ti][si] != want.LatMs[ti][si] || got.Shares[ti][si] != want.Shares[ti][si] {
				t.Fatalf("SnapshotInto row %d differs from Snapshot", ti)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { e.SnapshotInto(&got) }); allocs != 0 {
		t.Errorf("warm SnapshotInto allocates %v objects, want 0", allocs)
	}
}

// TestSnapshotAllocBudget locks a fresh Snapshot's allocations at O(chunks),
// not O(tasks): five per-task or per-resource vectors, two row tables, and
// the row chunks of LatMs and Shares, each at most rowChunk floats.
func TestSnapshotAllocBudget(t *testing.T) {
	w, err := workload.Replicate(workload.Base(), 1700, 8) // 5 100 tasks
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(3, nil)
	// Each chunk holds the tasks that fit in rowChunk floats, so it is over
	// half full: fewer than 2·subtasks/rowChunk + 1 of them per row set.
	subtasks, chunks, off := e.p.NumSubtasks(), 0, e.p.subOff
	for ti, lo := 0, int32(0); ti < e.p.NumTasks(); ti++ {
		if ti == 0 || off[ti+1]-lo > rowChunk {
			chunks, lo = chunks+1, off[ti]
		}
	}
	if chunks >= 2*subtasks/rowChunk+1 {
		t.Fatalf("%d subtasks need %d chunks of at most %d floats", subtasks, chunks, rowChunk)
	}
	// The resource vectors, one block of the three per-task ones, two row
	// sets and each set's chunks.
	budget := float64(2 + 1 + 2 + 2*chunks)
	if allocs := testing.AllocsPerRun(10, func() { _ = e.Snapshot() }); allocs > budget {
		t.Errorf("Snapshot of %d tasks, %d subtasks allocates %v objects, want <= %v",
			e.p.NumTasks(), subtasks, allocs, budget)
	}
}

// TestEngineCloseIsReusable checks Close retires the pool without bricking
// the engine: the next parallel Step respawns workers and the trajectory is
// unaffected.
func TestEngineCloseIsReusable(t *testing.T) {
	serial, par := engines(t, workload.Base, 3)
	for i := 0; i < 100; i++ {
		serial.Step()
		par.Step()
		if i == 50 {
			par.Close()
			par.Close() // idempotent
		}
	}
	requireBitwiseEqual(t, 100, serial, par)
}

// TestReplaceWorkloadSwapsPool checks a workload replacement retires the
// old pool and the replacement engine still matches a serial reference.
func TestReplaceWorkloadSwapsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	serial, par := engines(t, workload.Base, 4)
	grown, err := workload.Replicate(workload.Base(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		serial.Step()
		par.Step()
	}
	if err := replaceWorkload(serial, grown); err != nil {
		t.Fatal(err)
	}
	if err := replaceWorkload(par, grown); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		serial.Step()
		par.Step()
	}
	requireBitwiseEqual(t, 200, serial, par)
	serial.Close()
	par.Close()
	// Pools park one goroutine per extra shard; after Close everything
	// should drain back to (roughly) the starting count.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d running, started with %d", n, before)
	}
}

// TestAdoptRebindsSteppedPool: a successor that already stepped on its own
// worker pool — admission's trial — keeps stepping bitwise like a serial
// twin once adopted, so its pool and certificate scratch act on the engine
// that took it over, and a deferred Close of the successor leaves that pool
// alone.
func TestAdoptRebindsSteppedPool(t *testing.T) {
	serial, par := engines(t, workload.Base, 4)
	grown, err := workload.Replicate(workload.Base(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{serial, par} {
		e.Run(50, nil)
		next, err := NewEngine(grown, e.cfg)
		if err != nil {
			t.Fatal(err)
		}
		next.CarryFrom(e)
		next.Run(50, nil)
		next.Certify(math.Inf(1), math.Inf(1)) // scans every range: builds the pooled scratch
		e.Adopt(next)
		next.Close()
	}
	if par.pool == nil {
		t.Fatal("the adopted successor's pool was not carried over")
	}
	for i := 0; i < 200; i++ {
		serial.Step()
		par.Step()
		serial.Certify(1e-9, 1e-6)
		par.Certify(1e-9, 1e-6)
	}
	requireBitwiseEqual(t, 300, serial, par)
	requireEnginesBitwiseEqual(t, "adopted", serial, par)
}

// TestWorkerResolution pins the Config.Workers contract: 0 means
// GOMAXPROCS, clamped to the task count; explicit counts are honored.
func TestWorkerResolution(t *testing.T) {
	base := workload.Base() // 3 tasks
	cases := []struct {
		workers int
		want    int
	}{
		{1, 1},
		{2, 2},
		{64, 3},
		{0, min(runtime.GOMAXPROCS(0), 3)},
		{-5, min(runtime.GOMAXPROCS(0), 3)},
	}
	for _, tc := range cases {
		e, err := NewEngine(base, Config{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Workers(); got != tc.want {
			t.Errorf("Workers=%d resolved to %d shards, want %d", tc.workers, got, tc.want)
		}
		e.Close()
	}
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"lla/internal/byteio"
	"lla/internal/price"
	"lla/internal/workload"
)

// checkpointSection writes e's checkpoint section.
func checkpointSection(t testing.TB, e *Engine) []byte {
	t.Helper()
	var w byteio.Enc
	e.AppendCheckpoint(&w)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	return w.B
}

// readSection reads a checkpoint section into e, which must consume it
// exactly.
func readSection(e *Engine, b []byte) error {
	d := byteio.Dec{Buf: b}
	e.ReadCheckpoint(&d)
	return d.Done()
}

// TestRestoreBitwiseEverySolverAndWorkers is the checkpoint tentpole's
// contract: crash at iteration k, capture, restore into a fresh engine, and
// every subsequent snapshot is byte-identical to the uninterrupted run — for
// every price solver, every capture/restore Workers combination, and both
// with and without the sparse path having accumulated skip state.
func TestRestoreBitwiseEverySolverAndWorkers(t *testing.T) {
	w4 := func(t *testing.T) *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	const crashAt = 60
	const tail = 120
	for _, solver := range price.Solvers() {
		for _, wk := range []struct{ capture, restore int }{{1, 1}, {1, 4}, {4, 1}} {
			t.Run(string(solver), func(t *testing.T) {
				cfg := Config{Workers: wk.capture, PriceSolver: solver}
				ref, err := NewEngine(w4(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				for i := 0; i < crashAt; i++ {
					ref.Step()
				}
				st := checkpointSection(t, ref)

				restoredCfg := cfg
				restoredCfg.Workers = wk.restore
				restored, err := NewEngine(w4(t), restoredCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if err := readSection(restored, st); err != nil {
					t.Fatalf("ReadCheckpoint: %v", err)
				}
				if restored.Iteration() != crashAt {
					t.Fatalf("restored iteration = %d, want %d", restored.Iteration(), crashAt)
				}

				var rs, cs Snapshot
				ref.SnapshotInto(&rs)
				restored.SnapshotInto(&cs)
				requireSnapshotsBitwiseEqual(t, crashAt, &rs, &cs)
				for i := 0; i < tail; i++ {
					ref.Step()
					restored.Step()
					ref.SnapshotInto(&rs)
					restored.SnapshotInto(&cs)
					requireSnapshotsBitwiseEqual(t, crashAt+i, &rs, &cs)
				}
				if ref.SolverFallbacks() != restored.SolverFallbacks() {
					t.Fatalf("fallback counts diverged: ref %d restored %d",
						ref.SolverFallbacks(), restored.SolverFallbacks())
				}
				if ref.SparseStats() != restored.SparseStats() {
					t.Fatalf("sparse stats diverged:\n ref      %+v\n restored %+v",
						ref.SparseStats(), restored.SparseStats())
				}
			})
		}
	}
}

// TestRestoreCarriesErrorMs: SetErrorMs writes only the compiled problem, so
// a restore that rebuilt the engine from the workload alone would lose it.
// The captured state must carry it and the restored trajectory must match.
func TestRestoreCarriesErrorMs(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 20; i++ {
		ref.Step()
	}
	name := ref.p.taskName(0)
	sub := ref.p.subtaskName(0, 0)
	if err := ref.SetErrorMs(name, sub, 0.4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ref.Step()
	}
	st := checkpointSection(t, ref)

	restored, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := readSection(restored, st); err != nil {
		t.Fatal(err)
	}
	if got := restored.p.errMs[0]; got != 0.4 {
		t.Fatalf("restored ErrMs = %v, want 0.4", got)
	}
	var rs, cs Snapshot
	for i := 0; i < 50; i++ {
		ref.Step()
		restored.Step()
		ref.SnapshotInto(&rs)
		restored.SnapshotInto(&cs)
		requireSnapshotsBitwiseEqual(t, i, &rs, &cs)
	}
}

// TestRestoreRejectsMismatch: shape and solver mismatches must refuse the
// restore rather than load approximately. Every engine runs a Dynamics, so
// the solver check is the Dynamics state's own, whichever solver the
// checkpoint and the engine name.
func TestRestoreRejectsMismatch(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Step()
	st := checkpointSection(t, ref)

	bigger, err := workload.Replicate(workload.Base(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(bigger, Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := readSection(other, st); err == nil {
		t.Fatal("restoring into a differently shaped engine succeeded, want error")
	}

	accel, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		t.Fatal(err)
	}
	defer accel.Close()
	if err := readSection(accel, st); err == nil {
		t.Fatal("restoring gradient checkpoint into newton engine succeeded, want error")
	}

	accel.Step()
	if err := readSection(ref, checkpointSection(t, accel)); err == nil {
		t.Fatal("restoring newton checkpoint into gradient engine succeeded, want error")
	}
}

// TestRestoreRejectsNonFiniteState: a checkpoint section whose values no
// run can produce is refused, not resumed — one NaN price would spread to
// every price within a few Steps. Each case patches one value of an encoded
// section.
func TestRestoreRejectsNonFiniteState(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 10; i++ {
		ref.Step()
	}
	at := sectionOffsets(ref)
	// The offsets must land on the values they name.
	for field, want := range map[string]float64{
		"Mu": ref.price[0], "ShareSums": ref.shareSums[0], "DynDelta": ref.dynDelta,
		"LatMs/0": ref.Controller(0).LatMs[0], "ErrMs/1": ref.p.errMs[ref.p.subOff[1]],
		"Lambda/0": ref.Controller(0).Lambda[0], "PathGamma/0": ref.Controller(0).gamma[0], "DynGammas": ref.dyn.Gamma(0),
	} {
		off := at[field]
		if got := math.Float64frombits(binary.LittleEndian.Uint64(checkpointSection(t, ref)[off:])); got != want {
			t.Fatalf("%s at offset %d reads %v, engine holds %v", field, off, got, want)
		}
	}
	for _, tc := range []struct {
		name  string
		field string
		i     int
		v     float64
	}{
		{"Mu NaN", "Mu", 0, math.NaN()},
		{"Mu negative", "Mu", 1, -1},
		{"Mu above MaxPrice", "Mu", 0, 2 * price.MaxPrice},
		{"ShareSums NaN", "ShareSums", 0, math.NaN()},
		{"DynDelta Inf", "DynDelta", 0, math.Inf(1)},
		{"LatMs Inf", "LatMs/0", 0, math.Inf(1)},
		{"ErrMs -Inf", "ErrMs/1", 0, math.Inf(-1)},
		{"Lambda negative", "Lambda/0", 0, -1},
		{"Lambda NaN", "Lambda/0", 0, math.NaN()},
		{"PathGamma zero", "PathGamma/0", 0, 0},
		{"Dyn gamma negative", "DynGammas", 1, -3},
		{"Dyn gamma NaN", "DynGammas", 0, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := checkpointSection(t, ref)
			binary.LittleEndian.PutUint64(st[at[tc.field]+8*tc.i:], math.Float64bits(tc.v))
			eng, err := NewEngine(workload.Base(), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := readSection(eng, st); err == nil {
				t.Fatal("restore succeeded, want an error")
			}
		})
	}
}

// sectionOffsets locates, in e's checkpoint section, the first value of each
// float vector (per-task ones as "LatMs/<task>" and so on; DynDelta is a
// single value).
func sectionOffsets(e *Engine) map[string]int {
	at := map[string]int{}
	off := 8 + 4 // iteration, task count
	f64s := func(name string, n int) { at[name] = off + 4; off += 4 + 8*n }
	bools := func(n int) { off += 4 + n }
	for ti := range e.p.NumTasks() {
		c := e.Controller(ti)
		f64s(fmt.Sprint("LatMs/", ti), len(c.LatMs))
		f64s(fmt.Sprint("Lambda/", ti), len(c.Lambda))
		f64s(fmt.Sprint("PathGamma/", ti), len(c.gamma))
		f64s(fmt.Sprint("ErrMs/", ti), len(c.LatMs))
	}
	nr, nt := len(e.price), e.p.NumTasks()
	f64s("Mu", nr)
	f64s("ShareSums", nr)
	for _, n := range []int{nr, nt, nr} { // congestion and fixed-point flags
		bools(n)
	}
	off += 5 * 8 // sparse counters
	at["DynDelta"] = off
	off += 8 + 4 + len(e.dyn.Solver())
	f64s("DynGammas", nr)
	return at
}

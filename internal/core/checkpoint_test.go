package core

import (
	"math"
	"testing"

	"lla/internal/price"
	"lla/internal/workload"
)

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
				st := ref.CaptureState()

				restoredCfg := cfg
				restoredCfg.Workers = wk.restore
				restored, err := NewEngine(w4(t), restoredCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if err := restored.RestoreState(st); err != nil {
					t.Fatalf("RestoreState: %v", err)
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
	name := ref.Problem().Tasks[0].Name
	sub := ref.Problem().Tasks[0].SubtaskNames[0]
	if err := ref.SetErrorMs(name, sub, 0.4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ref.Step()
	}
	st := ref.CaptureState()

	restored, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := restored.Problem().Tasks[0].ErrMs[0]; got != 0.4 {
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
	st := ref.CaptureState()

	bigger, err := workload.Replicate(workload.Base(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(bigger, Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RestoreState(st); err == nil {
		t.Fatal("restoring into a differently shaped engine succeeded, want error")
	}

	accel, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		t.Fatal(err)
	}
	defer accel.Close()
	if err := accel.RestoreState(st); err == nil {
		t.Fatal("restoring gradient checkpoint into newton engine succeeded, want error")
	}

	accel.Step()
	if err := ref.RestoreState(accel.CaptureState()); err == nil {
		t.Fatal("restoring newton checkpoint into gradient engine succeeded, want error")
	}
}

// TestRestoreRejectsNonFiniteState: a checkpoint whose values no run can
// produce is refused, not resumed — one NaN price would spread to every price
// within a few Steps.
func TestRestoreRejectsNonFiniteState(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 10; i++ {
		ref.Step()
	}
	for _, tc := range []struct {
		name    string
		corrupt func(st *EngineState)
	}{
		{"Mu NaN", func(st *EngineState) { st.Mu[0] = math.NaN() }},
		{"Mu negative", func(st *EngineState) { st.Mu[1] = -1 }},
		{"Mu above MaxPrice", func(st *EngineState) { st.Mu[0] = 2 * price.MaxPrice }},
		{"FpMu Inf", func(st *EngineState) { st.FpMu[0] = math.Inf(1) }},
		{"FpMu negative", func(st *EngineState) { st.FpMu[0] = -0.5 }},
		{"ShareSums NaN", func(st *EngineState) { st.ShareSums[0] = math.NaN() }},
		{"DynDelta Inf", func(st *EngineState) { st.DynDelta = math.Inf(1) }},
		{"LatMs Inf", func(st *EngineState) { st.LatMs[0][0] = math.Inf(1) }},
		{"ErrMs -Inf", func(st *EngineState) { st.ErrMs[1][0] = math.Inf(-1) }},
		{"Lambda negative", func(st *EngineState) { st.Lambda[0][0] = -1 }},
		{"Lambda NaN", func(st *EngineState) { st.Lambda[0][0] = math.NaN() }},
		{"PathGamma zero", func(st *EngineState) { st.PathGamma[0][0] = 0 }},
		{"Dyn gamma negative", func(st *EngineState) { st.Dyn.Gammas[1] = -3 }},
		{"Dyn gamma NaN", func(st *EngineState) { st.Dyn.Gammas[0] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := ref.CaptureState()
			tc.corrupt(&st)
			eng, err := NewEngine(workload.Base(), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.RestoreState(st); err == nil {
				t.Fatal("restore succeeded, want an error")
			}
		})
	}
}

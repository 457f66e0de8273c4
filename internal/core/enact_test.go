package core

import (
	"testing"

	"lla/internal/workload"
)

func TestEnactorFirstCallAlwaysEnacts(t *testing.T) {
	en := NewEnactor()
	snap := Snapshot{Shares: [][]float64{{0.5}}, Utility: 10}
	if got := en.Consider(snap); got == nil {
		t.Fatal("first allocation must enact")
	}
	if en.Enactments() != 1 {
		t.Errorf("enactments = %d, want 1", en.Enactments())
	}
}

func TestEnactorSkipsTinyChanges(t *testing.T) {
	en := NewEnactor()
	en.Consider(Snapshot{Shares: [][]float64{{0.5, 0.3}}, Utility: 100})
	// 0.1% share drift, 0.1% utility drift: below both thresholds.
	if got := en.Consider(Snapshot{Shares: [][]float64{{0.5005, 0.3001}}, Utility: 100.1}); got != nil {
		t.Error("tiny drift should not enact")
	}
	if en.Enactments() != 1 {
		t.Errorf("enactments = %d, want 1", en.Enactments())
	}
}

func TestEnactorReactsToShareMove(t *testing.T) {
	en := NewEnactor()
	en.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100})
	if got := en.Consider(Snapshot{Shares: [][]float64{{0.6}}, Utility: 100}); got == nil {
		t.Error("20% share move should enact")
	}
}

func TestEnactorReactsToUtilityGain(t *testing.T) {
	en := NewEnactor()
	en.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100})
	if got := en.Consider(Snapshot{Shares: [][]float64{{0.5001}}, Utility: 105}); got == nil {
		t.Error("5% utility gain should enact")
	}
}

func TestEnactorStructuralChangeEnacts(t *testing.T) {
	en := NewEnactor()
	en.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100})
	if got := en.Consider(Snapshot{Shares: [][]float64{{0.5}, {0.2}}, Utility: 100}); got == nil {
		t.Error("task-count change should enact")
	}
	en2 := NewEnactor()
	en2.Consider(Snapshot{Shares: [][]float64{{0.5, 0.5}}, Utility: 100})
	if got := en2.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100}); got == nil {
		t.Error("subtask-count change should enact")
	}
}

func TestEnactorZeroShareTransitions(t *testing.T) {
	en := NewEnactor()
	en.Consider(Snapshot{Shares: [][]float64{{0}}, Utility: 100})
	if got := en.Consider(Snapshot{Shares: [][]float64{{0.1}}, Utility: 100}); got == nil {
		t.Error("zero to nonzero should enact")
	}
}

func TestEnactorReturnsDeepCopy(t *testing.T) {
	en := NewEnactor()
	got := en.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100})
	got[0][0] = 99
	if next := en.Consider(Snapshot{Shares: [][]float64{{0.5}}, Utility: 100}); next != nil {
		t.Error("mutating the returned slice must not affect enactor state")
	}
}

// During a long converged stretch the enactor goes quiet — the paper's "the
// optimization algorithm executes much less frequently than regular
// processing".
func TestEnactorQuietAfterConvergence(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	en := NewEnactor()
	e.Run(2000, func(s Snapshot) { en.Consider(s) })
	total := en.Enactments()
	// Run another 500 converged iterations: no new enactments.
	e.Run(500, func(s Snapshot) { en.Consider(s) })
	if en.Enactments() != total {
		t.Errorf("enactments grew from %d to %d after convergence", total, en.Enactments())
	}
	if total > 200 {
		t.Errorf("%d enactments over the transient, want far fewer than iterations", total)
	}
}

func TestReplaceWorkloadCarriesPrices(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snapBefore, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("initial convergence failed")
	}
	muBefore := append([]float64(nil), snapBefore.Mu...)

	// Same workload: everything carries over; immediately converged.
	if err := e.ReplaceWorkload(workload.Base()); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	for ri := range muBefore {
		if snap.Mu[ri] != muBefore[ri] {
			t.Errorf("mu[%d] = %v, want carried %v", ri, snap.Mu[ri], muBefore[ri])
		}
	}
	snapAfter, ok := e.RunUntilKKT(200, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("warm restart should converge almost immediately: %v", snapAfter)
	}
}

func TestReplaceWorkloadWithNewTask(t *testing.T) {
	w4, err := workload.Replicate(workload.Base(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6); !ok {
		t.Fatal("initial convergence failed")
	}

	// A fourth task joins (replicate one task of the relaxed workload).
	w6, err := workload.Replicate(workload.Base(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReplaceWorkload(w6); err != nil {
		t.Fatal(err)
	}
	warm := e.Iteration()
	snap, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge after task join: %v", snap)
	}
	warmIters := snap.Iteration - warm
	if len(snap.TaskUtility) != 6 {
		t.Fatalf("tasks after join = %d, want 6", len(snap.TaskUtility))
	}

	// Cold start for comparison: warm restart should not be slower by more
	// than a small factor (it is usually much faster).
	cold, err := NewEngine(w6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	coldSnap, ok := cold.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("cold start did not converge")
	}
	t.Logf("warm restart %d iters, cold start %d iters", warmIters, coldSnap.Iteration)
	if warmIters > coldSnap.Iteration*3 {
		t.Errorf("warm restart (%d iters) much slower than cold (%d)", warmIters, coldSnap.Iteration)
	}
}

func TestReplaceWorkloadRejectsInvalid(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := workload.Base()
	bad.Tasks = nil
	if err := e.ReplaceWorkload(bad); err == nil {
		t.Fatal("invalid workload should fail")
	}
	// The engine is still usable after a failed replace.
	e.Step()
	if e.Snapshot().Utility == 0 {
		t.Error("engine unusable after failed replace")
	}
}

func TestReplaceWorkloadStructureChangeStartsFresh(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(500, nil)

	// Change task1's structure (different subtask names): it must restart
	// fresh but the engine still converges.
	w := workload.Base()
	w.Tasks[0].Subtasks[0].Name = "renamed"
	if err := e.ReplaceWorkload(w); err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge after structural change: %v", snap)
	}
	if _, err := e.LatencyByName("task1", "renamed"); err != nil {
		t.Errorf("renamed subtask not found: %v", err)
	}
}

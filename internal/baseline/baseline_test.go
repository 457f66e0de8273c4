package baseline

import (
	"math"
	"testing"

	"lla/internal/core"
	"lla/internal/task"
	"lla/internal/workload"
)

func TestEvenSliceRespectsDeadlines(t *testing.T) {
	w := workload.Base()
	a, err := EvenSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tk := range w.Tasks {
		cp, _, err := tk.CriticalPathMs(a.LatMs[ti])
		if err != nil {
			t.Fatal(err)
		}
		if cp > tk.CriticalMs+1e-9 {
			t.Errorf("%s: even-slice critical path %.2f exceeds %.1f", tk.Name, cp, tk.CriticalMs)
		}
	}
	// Task 3 is a 6-chain: every slice is C/6.
	for si, lat := range a.LatMs[2] {
		if math.Abs(lat-53.0/6) > 1e-9 {
			t.Errorf("task3 slice %d = %v, want %v", si, lat, 53.0/6)
		}
	}
}

func TestProportionalSliceRespectsDeadlines(t *testing.T) {
	w := workload.Base()
	a, err := ProportionalSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tk := range w.Tasks {
		cp, _, err := tk.CriticalPathMs(a.LatMs[ti])
		if err != nil {
			t.Fatal(err)
		}
		if cp > tk.CriticalMs+1e-9 {
			t.Errorf("%s: proportional-slice critical path %.2f exceeds %.1f", tk.Name, cp, tk.CriticalMs)
		}
	}
	// Chain task: slices proportional to WCET summing to C on the chain.
	sum := 0.0
	for _, lat := range a.LatMs[2] {
		sum += lat
	}
	if math.Abs(sum-53) > 1e-9 {
		t.Errorf("task3 slices sum to %v, want 53", sum)
	}
}

// On the congested base workload the capacity-blind slicing baselines demand
// more share than the resources can supply, while LLA stays feasible with
// higher utility than any feasible baseline would achieve.
func TestSlicingBaselinesOverloadResources(t *testing.T) {
	w := workload.Base()
	for _, mk := range []func(*workload.Workload) (*Assignment, error){EvenSlice, ProportionalSlice} {
		a, err := mk(w)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(w, a, task.WeightPathNormalized)
		if err != nil {
			t.Fatal(err)
		}
		if ev.MaxResourceViolation <= 0.05 {
			t.Errorf("%s: expected clear resource overload on the congested base workload, got %.4f",
				a.Name, ev.MaxResourceViolation)
		}
		if ev.MaxPathViolationFrac > 1e-9 {
			t.Errorf("%s: slicing must never violate deadlines, got %.4f", a.Name, ev.MaxPathViolationFrac)
		}
	}
}

func TestEvaluateShapeErrors(t *testing.T) {
	w := workload.Base()
	if _, err := Evaluate(w, &Assignment{Name: "bad"}, task.WeightSum); err == nil {
		t.Error("wrong task count should fail")
	}
	a, _ := EvenSlice(w)
	a.LatMs[0] = a.LatMs[0][:2]
	if _, err := Evaluate(w, a, task.WeightSum); err == nil {
		t.Error("wrong subtask count should fail")
	}
}

// LLA beats both slicing baselines in utility whenever the baselines are
// compared on a workload where all are feasible (overprovisioned variant).
func TestLLADominatesBaselinesWhenFeasible(t *testing.T) {
	w, err := workload.Replicate(workload.Base(), 1, 4) // relaxed critical times
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("LLA did not converge")
	}
	for _, mk := range []func(*workload.Workload) (*Assignment, error){EvenSlice, ProportionalSlice} {
		a, err := mk(w)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(w, a, task.WeightPathNormalized)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Feasible(1e-6) && ev.Utility > snap.Utility+1e-6 {
			t.Errorf("%s beats LLA: %.2f > %.2f", a.Name, ev.Utility, snap.Utility)
		}
	}
}

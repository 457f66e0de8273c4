package lla_test

import (
	"math"
	"testing"

	"lla"
)

// smallWorkload builds a two-task workload through the public facade only.
func smallWorkload(t testing.TB) *lla.Workload {
	t.Helper()
	fast, err := lla.NewTask("fast", 40).
		Trigger(lla.Periodic(100)).
		Subtask("a", "cpu", 3).
		Subtask("b", "net", 2).
		Chain("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := lla.NewTask("slow", 300).
		Trigger(lla.Poisson(150)).
		Subtask("x", "cpu", 6).
		Subtask("y", "net", 5).
		Chain("x", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &lla.Workload{
		Name:  "facade-small",
		Tasks: []*lla.Task{fast, slow},
		Resources: []lla.Resource{
			{ID: "cpu", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "net", Kind: lla.Link, Availability: 1, LagMs: 1},
		},
		Curves: map[string]lla.Curve{
			"fast": lla.Linear{K: 2, CMs: 40},
			"slow": lla.Linear{K: 2, CMs: 300},
		},
	}
}

func TestFacadeEngineEndToEnd(t *testing.T) {
	w := smallWorkload(t)
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := engine.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("no convergence: %v", snap)
	}
	if !snap.Feasible(1e-3) {
		t.Fatalf("infeasible: %v", snap)
	}
	// Both resources saturated under linear (always-hungry) utilities.
	for ri, sum := range snap.ShareSums {
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("resource %d share sum %v, want ≈1", ri, sum)
		}
	}
}

func TestFacadeSimulatorEndToEnd(t *testing.T) {
	w := smallWorkload(t)
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := engine.RunUntilKKT(5000, 1e-9, 3, 1e-6)

	world, err := lla.NewSimulator(w, lla.SimConfig{Scheduler: lla.SchedGPS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.SetShares(snap.Shares); err != nil {
		t.Fatal(err)
	}
	world.RunFor(30000)
	for ti, tk := range w.Tasks {
		p95 := world.TaskLatency(ti).Quantile(0.95)
		if p95 > tk.CriticalMs {
			t.Errorf("%s measured p95 %.1f exceeds deadline %.0f", tk.Name, p95, tk.CriticalMs)
		}
		if p95 <= 0 || math.IsNaN(p95) {
			t.Errorf("%s p95 = %v, want positive", tk.Name, p95)
		}
	}
}

func TestFacadeDistributedEndToEnd(t *testing.T) {
	w := smallWorkload(t)
	rt, err := lla.NewDistributed(w, lla.Config{}, lla.NewInprocNetwork(lla.InprocConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.RunUntilKKT(3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("distributed run did not converge in %d rounds", res.Rounds)
	}
	// Same utility as the synchronous engine.
	engine, err := lla.NewEngine(smallWorkload(t), lla.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := engine.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if math.Abs(res.Utility-want.Utility) > 0.01*math.Abs(want.Utility) {
		t.Errorf("distributed utility %v vs engine %v", res.Utility, want.Utility)
	}
}

func TestFacadeBaselinesEndToEnd(t *testing.T) {
	w := smallWorkload(t)
	even, err := lla.EvenSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := lla.EvaluateAssignment(w, even, lla.WeightPathNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MaxPathViolationFrac > 1e-9 {
		t.Errorf("even slicing violated a deadline: %v", ev.MaxPathViolationFrac)
	}
	prop, err := lla.ProportionalSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	pev, err := lla.EvaluateAssignment(w, prop, lla.WeightPathNormalized)
	if err != nil {
		t.Fatal(err)
	}
	// The dual bound at LLA's certified prices bounds every feasible
	// allocation, the slicings among them, and meets LLA's own utility.
	e, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("LLA did not certify")
	}
	bound := e.DualBound()
	for i, sl := range [...]struct {
		utility  float64
		feasible bool
	}{{ev.Utility, ev.Feasible(1e-9)}, {pev.Utility, pev.Feasible(1e-9)}} {
		if !sl.feasible {
			t.Fatalf("slicing %d is infeasible, so the bound says nothing of it", i)
		}
		if bound < sl.utility {
			t.Errorf("dual bound %v below feasible slicing %d's utility %v", bound, i, sl.utility)
		}
	}
	if gap := (bound - snap.Utility) / max(1, math.Abs(snap.Utility)); math.Abs(gap) > 1e-8 {
		t.Errorf("certified gap %.3g: bound %v, utility %v", gap, bound, snap.Utility)
	}
}

func TestFacadePaperWorkloads(t *testing.T) {
	if w := lla.BaseWorkload(); len(w.Tasks) != 3 || w.TotalSubtasks() != 21 {
		t.Error("base workload shape wrong")
	}
	if w := lla.PrototypeWorkload(); len(w.Tasks) != 4 || len(w.Resources) != 3 {
		t.Error("prototype workload shape wrong")
	}
	w, err := lla.RandomWorkload(lla.DefaultRandomConfig(5))
	if err != nil || w.Validate() != nil {
		t.Errorf("random workload: %v", err)
	}
	w2, err := lla.Replicate(lla.BaseWorkload(), 2, 4)
	if err != nil || len(w2.Tasks) != 6 {
		t.Errorf("replicate: %v", err)
	}
}

func TestFacadeCorrector(t *testing.T) {
	if c := lla.NewCorrector(); c.ErrMs() != 0 {
		t.Error("fresh corrector should report zero")
	}
}

// Random schedulable workloads: LLA must converge to a feasible point and
// beat (or match) every feasible slicing baseline. This is the library's
// headline guarantee exercised as a property test over generated problems.
func TestFacadeLLADominatesOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := lla.DefaultRandomConfig(seed)
		cfg.SlackFactor = 10
		w, err := lla.RandomWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := lla.NewEngine(w, lla.Config{})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := engine.RunUntilKKT(8000, 1e-9, 3, 1e-6)
		if !ok {
			t.Errorf("seed %d: did not converge: %v", seed, snap)
			continue
		}
		if !snap.Feasible(1e-2) {
			t.Errorf("seed %d: infeasible: %v", seed, snap)
		}
		for _, mk := range []func(*lla.Workload) (*lla.BaselineAssignment, error){
			lla.EvenSlice, lla.ProportionalSlice,
		} {
			a, err := mk(w)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := lla.EvaluateAssignment(w, a, lla.WeightPathNormalized)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Feasible(1e-6) && ev.Utility > snap.Utility+1e-6 {
				t.Errorf("seed %d: %s utility %.3f beats LLA %.3f", seed, a.Name, ev.Utility, snap.Utility)
			}
		}
	}
}

package admit

import (
	"testing"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// placerWorkload is a resource pool for pure Bind tests (no engine).
func placerWorkload() *workload.Workload {
	return &workload.Workload{
		Name: "pool",
		Resources: []share.Resource{
			{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r1", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r2", Kind: share.CPU, Availability: 1, LagMs: 1},
		},
	}
}

// prices serves mu as the price function Bind reads, indexed like
// placerWorkload's resources.
func prices(mu ...float64) func(ri int) float64 {
	return func(ri int) float64 { return mu[ri] }
}

func placedCandidate(t *testing.T, name string, stages int, candidates [][]string) Candidate {
	t.Helper()
	b := task.NewBuilder(name, 100).Trigger(task.Periodic(100))
	names := make([]string, stages)
	for i := range names {
		names[i] = name + "-s" + string(rune('0'+i))
		b.Subtask(names[i], "r0", 4) // advisory binding; Bind rewrites it
	}
	b.Chain(names...)
	tk, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Candidate{Task: tk, Candidates: candidates, Curve: utility.Linear{K: 2, CMs: 100}}
}

func TestBindChoosesCheapest(t *testing.T) {
	w := placerWorkload()
	p := NewPlacer()
	mu := prices(5, 0.5, 2)

	bound, err := p.Bind(w, placedCandidate(t, "solo", 1, nil), task.WeightSum, mu)
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.Subtasks[0].Resource; got != "r1" {
		t.Fatalf("bound to %s, want cheapest r1", got)
	}

	// Candidate sets are honored even when a cheaper resource exists outside.
	bound, err = p.Bind(w, placedCandidate(t, "boxed", 1, [][]string{{"r0", "r2"}}), task.WeightSum, mu)
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.Subtasks[0].Resource; got != "r2" {
		t.Fatalf("bound to %s, want r2 (cheapest inside candidate set)", got)
	}
}

func TestBindDistinctResources(t *testing.T) {
	w := placerWorkload()
	p := NewPlacer()
	mu := prices(5, 0.5, 2)

	bound, err := p.Bind(w, placedCandidate(t, "pair", 2, nil), task.WeightSum, mu)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := bound.Subtasks[0].Resource, bound.Subtasks[1].Resource; a != "r1" || b != "r2" {
		t.Fatalf("bindings %s,%s; want r1,r2 (cheapest then next-cheapest)", a, b)
	}

	// With only one candidate resource for both subtasks, the second cannot
	// bind (distinct-resources rule) and Bind fails.
	_, err = p.Bind(w, placedCandidate(t, "clash", 2, [][]string{{"r1"}, {"r1"}}), task.WeightSum, mu)
	if err == nil {
		t.Fatal("expected a binding failure when both subtasks share one candidate resource")
	}
}

func TestBindDeterministicTies(t *testing.T) {
	w := placerWorkload()
	p := NewPlacer()
	mu := prices(1, 1, 1) // all tied
	for i := 0; i < 10; i++ {
		bound, err := p.Bind(w, placedCandidate(t, "tied", 2, nil), task.WeightSum, mu)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := bound.Subtasks[0].Resource, bound.Subtasks[1].Resource; a != "r0" || b != "r1" {
			t.Fatalf("tie-break drifted to %s,%s; want first-wins r0,r1", a, b)
		}
	}
}

// TestRebalanceMovesOnSkew admits a placed task, then starves whichever
// resource it landed on; once the price skew persists past the window the
// controller must re-place it onto the other resource.
func TestRebalanceMovesOnSkew(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{})
	ctrl.UsePlacer(NewPlacer())

	cand := placedCandidate(t, "mover", 1, [][]string{{"r0", "r1"}})
	d, err := ctrl.OfferPlaced(cand)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatalf("mover not admitted: %+v", d)
	}
	home := eng.Problem().Workload().TaskByName("mover").Subtasks[0].Resource
	other := "r1"
	if home == "r1" {
		other = "r0"
	}

	if err := eng.SetAvailability(home, 0.25); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilKKT(3000, 1e-9, 3, 1e-6)

	moved := false
	for i := 0; i < 30 && !moved; i++ {
		var err error
		_, moved, err = ctrl.MaybeRebalance()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !moved {
		t.Fatal("no rebalance despite sustained price skew")
	}
	if got := eng.Problem().Workload().TaskByName("mover").Subtasks[0].Resource; got != other {
		t.Fatalf("mover on %s after rebalance, want %s", got, other)
	}
	log := ctrl.Log()
	last := log[len(log)-1]
	if last.Kind != KindRebalance || !last.Admitted || last.ReconvergeIters <= 0 {
		t.Fatalf("rebalance decision malformed: %+v", last)
	}
}

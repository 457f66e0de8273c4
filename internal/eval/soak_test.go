package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSoakQuick runs the chaos soak in quick mode and checks every acceptance
// verdict: zero violations, bitwise restores, warm < cold recovery, flat
// allocs, all coordinator crashes executed, stale frames fenced, and the
// distributed result exact.
func TestSoakQuick(t *testing.T) {
	dir := t.TempDir()
	res, err := Soak(Options{Quick: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if strings.Contains(out, "verdict: FAILED") {
		t.Fatalf("soak verdict failed:\n%s", out)
	}
	for _, want := range []string{
		"critical-time violations: 0",
		"restore fidelity",
		"warm recovery bounded",
		"epoch fencing",
		"distributed recovery exact",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("soak report missing %q:\n%s", want, out)
		}
	}
	// The checkpoint directory must hold durable generations (the writer
	// keeps 3), none of them temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp checkpoint litter: %s", e.Name())
		}
		if filepath.Ext(e.Name()) == ".llackpt" {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Error("soak left no checkpoints behind")
	}
}

// TestSoakEpochPersists runs two quick soaks over the same checkpoint
// directory: the second run's coordinator must recover the first run's final
// epoch from disk and keep counting generations from there.
func TestSoakEpochPersists(t *testing.T) {
	dir := t.TempDir()
	first, err := Soak(Options{Quick: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Soak(Options{Quick: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(second.Render(), "verdict: FAILED") {
		t.Fatalf("second soak over a reused checkpoint dir failed:\n%s", second.Render())
	}
	// Each soak schedules 3 coordinator crashes; epochs are cumulative across
	// runs because the generation is persisted in the checkpoints.
	get := func(r *Result, what string) string {
		for _, n := range r.Notes {
			if strings.Contains(n, what) {
				return n
			}
		}
		return ""
	}
	n1, n2 := get(first, "final epoch"), get(second, "final epoch")
	if n1 == "" || n2 == "" {
		t.Fatalf("missing epoch notes: %q / %q", n1, n2)
	}
	if !strings.Contains(n1, "final epoch 3") || !strings.Contains(n2, "final epoch 6") {
		t.Errorf("epochs did not persist across soaks:\n first: %s\n second: %s", n1, n2)
	}
}

// TestSoakFailoverPhase runs the soak's distributed phase alone, in virtual
// time, over two seeds: every scheduled coordinator crash executes, the
// zombie generation is fenced, and the final state is the serial engine's —
// the three verdicts a wall-clock crash plan used to miss under load.
func TestSoakFailoverPhase(t *testing.T) {
	plan := soakPlanFor(Options{Quick: true})
	for _, seed := range []int64{7, 1} { // the soak's default, and the documented full run's
		var epochs []uint64
		res, diff, feasible, err := soakFailover(seed, plan, t.TempDir(), nil, func(e uint64) { epochs = append(epochs, e) })
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.CoordinatorRestarts != len(plan.distCrashes) || len(epochs) != len(plan.distCrashes) {
			t.Errorf("seed %d: %d restarts (epochs %v), %d crashes scheduled", seed, res.CoordinatorRestarts, epochs, len(plan.distCrashes))
		}
		if res.FencedStale == 0 {
			t.Errorf("seed %d: zombie probe ran but nothing was fenced", seed)
		}
		if diff != 0 || !feasible {
			t.Errorf("seed %d: max |dist−engine| = %g, feasible=%v", seed, diff, feasible)
		}
	}
}

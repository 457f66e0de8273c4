package fleet

import (
	"fmt"
	"math"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/task"
	"lla/internal/workload"
)

// replaceUtility runs a cold fleet on w and returns its converged utility —
// the reference a warm-started fleet must match.
func replaceUtility(t *testing.T, w *workload.Workload, cfg Config) float64 {
	t.Helper()
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cold reference did not converge in %d rounds", res.Rounds)
	}
	return res.Utility
}

// TestFleetReplaceWorkloadIncremental: a one-task churn delta rebuilds only
// the affected shards, keeps every untouched shard's engine (same pointer,
// still skippable), and re-converges to the cold fleet's utility.
func TestFleetReplaceWorkloadIncremental(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 1, Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}
	w := clusteredWorkload(t, 17, 0.25)
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}

	// Churn: tighten one task's critical time by 10%.
	w2 := w.Clone()
	w2.Tasks[0].CriticalMs *= 0.9
	changedShard := f.Partition().TaskShard[0]
	engines := make(map[int]interface{}, f.Shards())
	for s := 0; s < f.Shards(); s++ {
		engines[s] = f.Engine(s)
	}

	st, err := f.ReplaceWorkload(w2)
	if err != nil {
		t.Fatalf("ReplaceWorkload: %v", err)
	}
	if st.Full {
		t.Fatal("one-task delta forced a full rebuild")
	}
	if st.Rebuilt < 1 || st.Reused < 1 {
		t.Fatalf("rebuilt %d reused %d, want both >= 1", st.Rebuilt, st.Reused)
	}
	if st.Added != 0 || st.Removed != 0 {
		t.Fatalf("added %d removed %d, want 0/0", st.Added, st.Removed)
	}
	for s := 0; s < f.Shards(); s++ {
		same := f.Engine(s) == engines[s]
		if s == changedShard && same {
			t.Fatalf("shard %d holds the changed task but kept its engine", s)
		}
		if s != changedShard && !same {
			t.Fatalf("untouched shard %d was rebuilt", s)
		}
	}

	res, err := f.Run()
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("warm fleet did not re-converge in %d rounds", res.Rounds)
	}
	cold := replaceUtility(t, w2, cfg)
	if dev := math.Abs(res.Utility-cold) / math.Max(math.Abs(cold), 1); dev > 1e-6 {
		t.Fatalf("warm utility %v deviates from cold %v by %v", res.Utility, cold, dev)
	}
}

// TestFleetUtilityFollowsEverySweep runs a fleet one round of one-Step
// sweeps per Run, so every Run sweeps shards whose utilities the previous one
// summed: Result.Utility must be the shards' utilities probed afresh each
// time.
func TestFleetUtilityFollowsEverySweep(t *testing.T) {
	f, err := New(clusteredWorkload(t, 23, 0.25), Config{Shards: 4, Seed: 1, MaxRounds: 1, LocalIters: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	swept := 0
	for run := 0; run < 50; run++ {
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		requireProbedUtility(t, fmt.Sprintf("run %d", run), f, res)
		if res.SweptShards > 0 {
			swept++
		}
		if res.Converged {
			break
		}
	}
	if swept < 2 {
		t.Fatalf("%d runs swept a shard; the test needs a sweep after a summed run", swept)
	}
}

// requireProbedUtility holds res.Utility bitwise to the sum, in shard order,
// of each shard engine's utility probed now.
func requireProbedUtility(t *testing.T, at string, f *Fleet, res Result) {
	t.Helper()
	want := 0.0
	for s := 0; s < f.Shards(); s++ {
		want += f.Engine(s).Probe().Utility
	}
	if res.Utility != want {
		t.Fatalf("%s: Result.Utility %v, the shards' probed utilities sum to %v", at, res.Utility, want)
	}
}

// TestFleetReplaceWorkloadChurn: tasks joining and leaving route through
// the incremental path — the newcomer lands on the shard already touching
// its resources, the leaver's shard rebuilds, and the fleet re-converges.
func TestFleetReplaceWorkloadChurn(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 1, Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}
	w := clusteredWorkload(t, 23, 0.25)
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}

	// Remove the last task; add a clone of task 0 under a new name (same
	// resources, so placement should follow the overlap signal to task 0's
	// shard).
	w2 := w.Clone()
	leaver := w2.Tasks[len(w2.Tasks)-1].Name
	w2.Tasks = w2.Tasks[:len(w2.Tasks)-1]
	delete(w2.Curves, leaver)
	twin := w2.Tasks[0].Clone()
	renameTask(twin, w2.Tasks[0].Name+"-twin")
	w2.Tasks = append(w2.Tasks, twin)
	w2.Curves[twin.Name] = w2.Curves[w2.Tasks[0].Name]

	homeShard := f.Partition().TaskShard[0]
	st, err := f.ReplaceWorkload(w2)
	if err != nil {
		t.Fatalf("ReplaceWorkload: %v", err)
	}
	if st.Full {
		t.Fatal("join/leave delta forced a full rebuild")
	}
	if st.Added != 1 || st.Removed != 1 {
		t.Fatalf("added %d removed %d, want 1/1", st.Added, st.Removed)
	}
	if got := f.Partition().TaskShard[len(w2.Tasks)-1]; got != homeShard {
		t.Fatalf("twin placed on shard %d, want its resources' shard %d", got, homeShard)
	}

	res, err := f.Run()
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("warm fleet did not re-converge in %d rounds", res.Rounds)
	}
	requireProbedUtility(t, "re-run", f, res)
	cold := replaceUtility(t, w2, cfg)
	if dev := math.Abs(res.Utility-cold) / math.Max(math.Abs(cold), 1); dev > 1e-6 {
		t.Fatalf("warm utility %v deviates from cold %v by %v", res.Utility, cold, dev)
	}
	// A run that sweeps nothing sums the utilities cached by the last one.
	res, err = f.Run()
	if err != nil || res.SweptShards != 0 {
		t.Fatalf("idle run: swept %d shards, err %v", res.SweptShards, err)
	}
	requireProbedUtility(t, "idle run", f, res)
}

// TestFleetReplaceWorkloadFullFallback: shrinking below one task per shard
// invalidates the partition shape; ReplaceWorkload falls back to a full
// (still warm-started) rebuild and the fleet stays usable.
func TestFleetReplaceWorkloadFullFallback(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 1, Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}
	w := clusteredWorkload(t, 17, 0.25)
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}
	rounds := f.Stats().Rounds

	tiny := cloningSubWorkload(w, "tiny", []int{0, 1, 2})
	st, err := f.ReplaceWorkload(tiny)
	if err != nil {
		t.Fatalf("ReplaceWorkload: %v", err)
	}
	if !st.Full {
		t.Fatal("3 tasks on 4 shards should force a full rebuild")
	}
	if f.Shards() != 3 {
		t.Fatalf("shrunken fleet has %d shards, want 3", f.Shards())
	}
	if f.Stats().Rounds != rounds {
		t.Fatalf("lifetime stats lost across full rebuild: %d, want %d", f.Stats().Rounds, rounds)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("rebuilt fleet did not converge in %d rounds", res.Rounds)
	}
}

// renameTask gives a cloned task a fresh name, including its subtask and
// curve bindings that key on the task name.
func renameTask(c *task.Task, name string) {
	c.Name = name
}

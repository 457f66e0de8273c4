package fleet

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lla/internal/core"
	"lla/internal/task"
	"lla/internal/workload"
)

// incidenceOf compiles a workload and returns its CSR incidence.
func incidenceOf(t *testing.T, w *workload.Workload) *core.Incidence {
	t.Helper()
	p, err := core.Compile(w, task.WeightPathNormalized)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inc := core.NewIncidence(p)
	return &inc
}

// roundRobinCut computes the cut cost of the naive i%k assignment.
func roundRobinCut(inc *core.Incidence, k int) int {
	assign := make([]int, inc.NumTasks())
	for i := range assign {
		assign[i] = i % k
	}
	cut, _ := newShardIncidence(inc, assign, k).cut()
	return cut
}

// TestPartitionProperties is the table-driven property suite: every
// partition must assign each task exactly once, respect the balance cap,
// cut no more than round-robin, and classify boundary resources exactly.
func TestPartitionProperties(t *testing.T) {
	clustered := func(seed int64, cross float64) *workload.Workload {
		cfg := workload.DefaultClusteredConfig(seed)
		cfg.CrossFraction = cross
		w, err := workload.Clustered(cfg)
		if err != nil {
			t.Fatalf("Clustered: %v", err)
		}
		return w
	}
	random := func(seed int64) *workload.Workload {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.NumTasks = 30
		cfg.NumResources = 12
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatalf("Random: %v", err)
		}
		return w
	}
	cases := []struct {
		name   string
		w      *workload.Workload
		shards int
	}{
		{"base-2", workload.Base(), 2},
		{"clustered-separable-4", clustered(7, 0), 4},
		{"clustered-coupled-4", clustered(7, 0.3), 4},
		{"clustered-coupled-3", clustered(11, 0.5), 3},
		{"random-5", random(3), 5},
		{"random-65", random(4), 65}, // > 64: exercises multi-word bitmasks
		{"single-shard", clustered(7, 0.3), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc := incidenceOf(t, tc.w)
			part, err := NewPartition(inc, PartitionConfig{Shards: tc.shards, Seed: 42})
			if err != nil {
				t.Fatalf("NewPartition: %v", err)
			}
			n := inc.NumTasks()
			if len(part.TaskShard) != n {
				t.Fatalf("TaskShard length %d, want %d", len(part.TaskShard), n)
			}

			// Every task in exactly one shard, consistent with ShardTasks.
			total := 0
			for s, tasks := range part.ShardTasks {
				total += len(tasks)
				for i := 1; i < len(tasks); i++ {
					if tasks[i] <= tasks[i-1] {
						t.Fatalf("shard %d task list not ascending: %v", s, tasks)
					}
				}
				for _, ti := range tasks {
					if part.TaskShard[ti] != s {
						t.Fatalf("task %d listed in shard %d but TaskShard says %d", ti, s, part.TaskShard[ti])
					}
				}
			}
			if total != n {
				t.Fatalf("ShardTasks covers %d tasks, want %d", total, n)
			}

			// Balance: no shard above ceil(n/K * 1.2) (the default slack).
			cap := int(math.Ceil(float64(n) / float64(part.Shards) * 1.2))
			for s, tasks := range part.ShardTasks {
				if len(tasks) > cap {
					t.Errorf("shard %d holds %d tasks, cap %d", s, len(tasks), cap)
				}
			}

			// Cut never worse than naive round-robin.
			if rr := roundRobinCut(inc, part.Shards); part.CutCost > rr {
				t.Errorf("CutCost %d worse than round-robin %d", part.CutCost, rr)
			}

			// Boundary classification: exactly the resources touched by >= 2
			// shards, ascending.
			wantCut := 0
			var wantBoundary []int
			for r := 0; r < inc.NumResources(); r++ {
				shards := map[int]bool{}
				for ti := 0; ti < n; ti++ {
					if slices.Contains(inc.TaskResources(ti), int32(r)) {
						shards[part.TaskShard[ti]] = true
					}
				}
				if len(shards) > 1 {
					wantCut += len(shards) - 1
					wantBoundary = append(wantBoundary, r)
				}
			}
			if part.CutCost != wantCut {
				t.Errorf("CutCost %d, recomputed %d", part.CutCost, wantCut)
			}
			if !reflect.DeepEqual(part.Boundary, wantBoundary) {
				t.Errorf("Boundary %v, recomputed %v", part.Boundary, wantBoundary)
			}
			if tc.shards == 1 && (part.CutCost != 0 || len(part.Boundary) != 0) {
				t.Errorf("single shard must have empty cut, got cost %d boundary %v", part.CutCost, part.Boundary)
			}
		})
	}
}

// TestPartitionDeterminism re-runs the partitioner under different
// GOMAXPROCS values: the result must be identical on every run — it is a
// pure function of (incidence, config).
func TestPartitionDeterminism(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(5)
	cfg.CrossFraction = 0.4
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	inc := incidenceOf(t, w)
	pcfg := PartitionConfig{Shards: 4, Seed: 99}
	ref, err := NewPartition(inc, pcfg)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			got, err := NewPartition(inc, pcfg)
			if err != nil {
				t.Fatalf("NewPartition (GOMAXPROCS=%d run %d): %v", procs, run, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("partition differs at GOMAXPROCS=%d run %d", procs, run)
			}
		}
	}
	// A different seed may legitimately coincide on tiny inputs, but a
	// different shard count must not.
	other, err := NewPartition(inc, PartitionConfig{Shards: 3, Seed: 99})
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	if reflect.DeepEqual(other.TaskShard, ref.TaskShard) {
		t.Fatal("different shard counts produced identical assignments")
	}
}

// TestPartitionSeparableClustersZeroCut checks the headline case: a
// cluster-ordered workload with no cross-cluster edges partitions with an
// empty boundary when K equals the cluster count.
func TestPartitionSeparableClustersZeroCut(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(21)
	cfg.CrossFraction = 0
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	part, err := NewPartition(incidenceOf(t, w), PartitionConfig{Shards: cfg.Clusters, Seed: 1})
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	if part.CutCost != 0 || len(part.Boundary) != 0 {
		t.Fatalf("separable clusters cut %d (boundary %v), want 0", part.CutCost, part.Boundary)
	}
}

// TestPartitionRejectsBadConfig covers validation and clamping.
func TestPartitionRejectsBadConfig(t *testing.T) {
	inc := incidenceOf(t, workload.Base())
	if _, err := NewPartition(inc, PartitionConfig{Shards: 0}); err == nil {
		t.Error("Shards=0 accepted")
	}
	part, err := NewPartition(inc, PartitionConfig{Shards: 1000})
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	if part.Shards != inc.NumTasks() {
		t.Errorf("Shards clamped to %d, want task count %d", part.Shards, inc.NumTasks())
	}
}

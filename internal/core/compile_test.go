package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lla/internal/task"
	"lla/internal/workload"
)

// TestCompileMatchesTaskModel: compile walks each task's DAG straight into
// the problem's flat arrays and derives the weights from its own path
// counts. Every path, transpose, weight and per-path minimum weight must be
// bit for bit what the task model — Task.Paths and Task.Weights — gives, in
// every weight mode, on the paper's workloads and on multi-path random DAGs.
func TestCompileMatchesTaskModel(t *testing.T) {
	replicated, err := workload.Replicate(workload.Base(), 2, 1) // Sec. 5.4
	if err != nil {
		t.Fatal(err)
	}
	workloads := []*workload.Workload{workload.Base(), workload.Prototype(), replicated}
	for seed := int64(1); seed <= 12; seed++ {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.NumTasks, cfg.NumResources, cfg.MaxSubtasks, cfg.MixedCurves = 8, 12, 10, seed%2 == 0
		w, err := workload.Random(cfg) // ChainOnly false: layered DAGs
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	multiPath := 0
	for _, w := range workloads {
		for _, mode := range []task.WeightMode{task.WeightSum, task.WeightPathNormalized, task.WeightPathRaw} {
			p, err := Compile(w, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", w.Name, mode, err)
			}
			for ti, tk := range w.Tasks {
				where := fmt.Sprintf("%s %v task %s", w.Name, mode, tk.Name)
				paths, err := tk.Paths()
				if err != nil {
					t.Fatal(err)
				}
				weights, err := tk.Weights(mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(paths) > 1 {
					multiPath++
				}
				if got := p.row(ti, p.weight); !slices.EqualFunc(got, weights, sameBits) {
					t.Fatalf("%s: weights %v, task model %v", where, got, weights)
				}
				if p.NumPaths(ti) != len(paths) {
					t.Fatalf("%s: %d compiled paths, task model %d", where, p.NumPaths(ti), len(paths))
				}
				through := make([][]int32, len(tk.Subtasks))
				for pi, path := range paths {
					if got := p.Path(ti, pi); !slices.Equal(got, int32s(path)) {
						t.Fatalf("%s path %d: %v, task model %v", where, pi, got, path)
					}
					wMin := math.Inf(1)
					for _, s := range path {
						wMin = math.Min(wMin, weights[s])
						through[s] = append(through[s], int32(pi))
					}
					if got := p.wMin[int(p.pathOff[ti])+pi]; !sameBits(got, wMin) {
						t.Fatalf("%s path %d: wMin %v, task model %v", where, pi, got, wMin)
					}
				}
				for si, want := range through {
					if got := p.PathsThrough(ti, si); !slices.Equal(got, want) {
						t.Fatalf("%s subtask %d: on paths %v, task model %v", where, si, got, want)
					}
				}
			}
		}
	}
	if multiPath == 0 {
		t.Fatal("no task has more than one path: the DAG cases test nothing")
	}

	// SetAvailability walks a resource's Subs in lockstep with the tasks
	// that contribute to it: a task has at most one subtask per resource and
	// both lists ascend, so the k-th task owns the k-th subtask. Cross edges
	// put two clusters' tasks on one resource; a projection keeps a subset.
	cfg := workload.DefaultClusteredConfig(7)
	cfg.CrossFraction = 0.5
	clustered, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := clustered.Check()
	if err != nil {
		t.Fatal(err)
	}
	var odd []int
	for ti := 1; ti < ck.NumTasks(); ti += 2 {
		odd = append(odd, ti)
	}
	for _, ck := range []*workload.Checked{ck, ck.Project("odd", odd)} {
		p, err := compile(ck, task.WeightSum)
		if err != nil {
			t.Fatal(err)
		}
		inc, shared := NewIncidence(p), 0
		for ri, r := range p.Resources {
			tasks := inc.resTask[inc.resTaskOff[ri]:inc.resTaskOff[ri+1]]
			if len(tasks) != len(r.Subs) {
				t.Fatalf("%s resource %s: %d contributing tasks, %d subtasks", ck.Workload().Name, r.ID, len(tasks), len(r.Subs))
			}
			for k, g := range r.Subs {
				if ti, _ := p.SubtaskAt(g); ti != int(tasks[k]) {
					t.Fatalf("%s resource %s: subtask %d is task %d's, contributor %d is task %d", ck.Workload().Name, r.ID, k, ti, k, tasks[k])
				}
			}
			if len(r.Subs) > 1 {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("%s: no resource has two tasks: the lockstep case tests nothing", ck.Workload().Name)
		}
	}
	if _, err := NewEngine(workload.Base(), Config{WeightMode: task.WeightMode(99)}); err == nil {
		t.Fatal("NewEngine accepted an unknown weight mode")
	}
}

// compileBytesBudget is the ceiling on the bytes one Compile allocates, its
// check included, on the fleet-1m-cold benchmark's shape at a tenth of its
// scale (9.53 MB measured, +5 %). With a per-task view struct, a copied
// subtask-name array and copies of the proof's arrays it took 16.84 MB,
// 10.59 MB while a fresh check built the prev and dirty vectors of a diff,
// and 10.41 MB while every problem indexed its task names up front.
const compileBytesBudget = 10_010_000

// TestCompileBytesBudget pins what Compile allocates: the check's proof, whose
// arrays the problem aliases, and the problem's flat arrays and maps — no
// per-task struct, no per-subtask string array, no second copy of the proof.
// GOMAXPROCS is 1 so that the check runs as one chunk on every machine.
func TestCompileBytesBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := workload.DefaultClusteredConfig(1)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 16, 125, 10, 500
	cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 5, 5, true
	cfg.SlackFactor, cfg.CrossFraction = 400, 0.002
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mode := Config{}.WithDefaults().WeightMode
	const runs = 3
	var before, after runtime.MemStats
	var p *Problem
	runtime.ReadMemStats(&before)
	for range runs {
		if p, err = Compile(w, mode); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Compile of %d tasks, %d subtasks: %.0f B/op, %.1f per subtask (ceiling %d)",
		len(w.Tasks), p.NumSubtasks(), perOp, perOp/float64(p.NumSubtasks()), compileBytesBudget)
	if perOp > compileBytesBudget {
		t.Fatalf("Compile allocates %.0f B/op, ceiling %d", perOp, compileBytesBudget)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

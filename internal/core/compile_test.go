package core

import (
	"fmt"
	"math"
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
				if !slices.EqualFunc(p.Tasks[ti].Weights, weights, sameBits) {
					t.Fatalf("%s: weights %v, task model %v", where, p.Tasks[ti].Weights, weights)
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
	if _, err := NewEngine(workload.Base(), Config{WeightMode: task.WeightMode(99)}); err == nil {
		t.Fatal("NewEngine accepted an unknown weight mode")
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

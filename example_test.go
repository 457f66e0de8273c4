package lla_test

import (
	"fmt"

	"lla"
)

// ExampleNewEngine optimizes a one-task workload and prints the allocation.
func ExampleNewEngine() {
	t, err := lla.NewTask("pipeline", 50).
		Trigger(lla.Periodic(100)).
		Subtask("stage1", "cpu", 4).
		Subtask("stage2", "net", 3).
		Chain("stage1", "stage2").
		Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	w := &lla.Workload{
		Name:  "example",
		Tasks: []*lla.Task{t},
		Resources: []lla.Resource{
			{ID: "cpu", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "net", Kind: lla.Link, Availability: 1, LagMs: 1},
		},
		Curves: map[string]lla.Curve{"pipeline": lla.Linear{K: 2, CMs: 50}},
	}
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	snap, converged := engine.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	// Alone on both resources, the task takes the full availability:
	// latency = (WCET + lag) / 1.
	fmt.Printf("converged=%v stage1=%.1fms stage2=%.1fms\n",
		converged, snap.LatMs[0][0], snap.LatMs[0][1])
	// Output: converged=true stage1=5.0ms stage2=4.0ms
}

// ExampleNewTask shows the fluent task builder with a fan-out graph.
func ExampleNewTask() {
	t, err := lla.NewTask("fanout", 100).
		Subtask("root", "r0", 1).
		Subtask("left", "r1", 2).
		Subtask("right", "r2", 3).
		Edge("root", "left").
		Edge("root", "right").
		Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	paths, _ := t.Paths()
	fmt.Printf("subtasks=%d paths=%d\n", len(t.Subtasks), len(paths))
	// Output: subtasks=3 paths=2
}

// ExampleBaseWorkload inspects the paper's Table 1 workload.
func ExampleBaseWorkload() {
	w := lla.BaseWorkload()
	fmt.Printf("%s: %d tasks, %d subtasks, %d resources\n",
		w.Name, len(w.Tasks), w.TotalSubtasks(), len(w.Resources))
	// Output: base-3task: 3 tasks, 21 subtasks, 8 resources
}

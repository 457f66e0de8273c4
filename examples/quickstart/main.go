// Quickstart: define a tiny two-task workload, optimize it with LLA, and
// print the resulting latency/share assignment.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"lla"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Two pipelines share a CPU and a network link. The "alerts" pipeline
	// has a tight deadline; "analytics" is elastic.
	alerts, err := lla.NewTask("alerts", 40).
		Trigger(lla.Periodic(100)).
		Subtask("detect", "cpu-0", 3).
		Subtask("notify", "link-0", 2).
		Chain("detect", "notify").
		Build()
	if err != nil {
		return err
	}
	analytics, err := lla.NewTask("analytics", 200).
		Trigger(lla.Periodic(100)).
		Subtask("ingest", "cpu-0", 5).
		Subtask("publish", "link-0", 4).
		Chain("ingest", "publish").
		Build()
	if err != nil {
		return err
	}

	w := &lla.Workload{
		Name:  "quickstart",
		Tasks: []*lla.Task{alerts, analytics},
		Resources: []lla.Resource{
			{ID: "cpu-0", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "link-0", Kind: lla.Link, Availability: 1, LagMs: 1},
		},
		Curves: map[string]lla.Curve{
			"alerts":    lla.Linear{K: 2, CMs: 40},
			"analytics": lla.Linear{K: 2, CMs: 200},
		},
	}

	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		return err
	}
	snap, converged := engine.RunUntilKKT(5000, 1e-9, 3, 1e-6)
	fmt.Printf("converged=%v after %d iterations, total utility %.2f\n\n",
		converged, snap.Iteration, snap.Utility)

	fmt.Println("task       subtask   latency(ms)  share")
	for ti, t := range w.Tasks {
		for si, s := range t.Subtasks {
			fmt.Printf("%-10s %-9s %10.2f  %5.3f\n",
				t.Name, s.Name, snap.LatMs[ti][si], snap.Shares[ti][si])
		}
	}
	fmt.Println()
	for ti, t := range w.Tasks {
		fmt.Printf("%-10s critical path %6.2f ms of %6.2f ms budget (utility %.2f)\n",
			t.Name, snap.CriticalPathMs[ti], t.CriticalMs, snap.TaskUtility[ti])
	}
	for ri, r := range w.Resources {
		fmt.Printf("%-10s share sum %.3f of %.2f available\n", r.ID, snap.ShareSums[ri], r.Availability)
	}
	return nil
}

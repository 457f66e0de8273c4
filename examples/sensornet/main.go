// Sensornet: the paper's "complex pull" scenario — a gateway polls two
// sensor clusters, aggregates their readings and delivers a fused report.
// The example optimizes latency assignments with LLA, enacts them on the
// discrete-event simulator, and compares the measured end-to-end latency
// distributions against the even-slicing baseline, demonstrating why a
// capacity-aware optimizer matters on a congested deployment.
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"os"

	"lla"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensornet:", err)
		os.Exit(1)
	}
}

// buildWorkload: two pull-aggregation tasks contending on the gateway CPU
// and backbone link.
func buildWorkload() (*lla.Workload, error) {
	poll := func(name string, critical, execScale float64, period float64) (*lla.Task, error) {
		return lla.NewTask(name, critical).
			Trigger(lla.Poisson(period)).
			Subtask("request", "gw-cpu", 1*execScale).
			Subtask("cluster-a", "radio-a", 3*execScale).
			Subtask("cluster-b", "radio-b", 4*execScale).
			Subtask("aggregate", "gw-cpu2", 2*execScale).
			Subtask("deliver", "backbone", 2*execScale).
			Edge("request", "cluster-a").
			Edge("request", "cluster-b").
			Edge("cluster-a", "aggregate").
			Edge("cluster-b", "aggregate").
			Edge("aggregate", "deliver").
			Build()
	}
	fast, err := poll("telemetry", 60, 1, 50)
	if err != nil {
		return nil, err
	}
	slow, err := poll("inventory", 240, 1.6, 120)
	if err != nil {
		return nil, err
	}
	return &lla.Workload{
		Name:  "sensornet",
		Tasks: []*lla.Task{fast, slow},
		Resources: []lla.Resource{
			{ID: "gw-cpu", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "gw-cpu2", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "radio-a", Kind: lla.Link, Availability: 0.6, LagMs: 2},
			{ID: "radio-b", Kind: lla.Link, Availability: 0.6, LagMs: 2},
			{ID: "backbone", Kind: lla.Link, Availability: 0.8, LagMs: 1},
		},
		Curves: map[string]lla.Curve{
			"telemetry": lla.Linear{K: 2, CMs: 60},
			"inventory": lla.Linear{K: 2, CMs: 240},
		},
	}, nil
}

// measure enacts an assignment of shares and reports per-task latency
// percentiles after simulating for durMs.
func measure(w *lla.Workload, shares [][]float64, seed int64, durMs float64) ([][3]float64, error) {
	world, err := lla.NewSimulator(w, lla.SimConfig{Scheduler: lla.SchedQuantum, QuantumMs: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := world.SetShares(shares); err != nil {
		return nil, err
	}
	world.RunFor(durMs / 5) // warm-up
	world.ResetStats()
	world.RunFor(durMs)
	out := make([][3]float64, len(w.Tasks))
	for ti := range w.Tasks {
		lat := world.TaskLatency(ti)
		out[ti] = [3]float64{lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99)}
	}
	return out, nil
}

// sharesFor converts a latency assignment into shares via the workload's
// share model.
func sharesFor(w *lla.Workload, latMs [][]float64) [][]float64 {
	shares := make([][]float64, len(w.Tasks))
	for ti, t := range w.Tasks {
		shares[ti] = make([]float64, len(t.Subtasks))
		for si, s := range t.Subtasks {
			r, _ := w.ResourceByID(s.Resource)
			shares[ti][si] = (s.ExecMs + r.LagMs) / latMs[ti][si]
		}
	}
	return shares
}

func run() error {
	w, err := buildWorkload()
	if err != nil {
		return err
	}

	// LLA assignment.
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		return err
	}
	snap, ok := engine.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		return fmt.Errorf("LLA did not converge: %v", snap)
	}

	// Even-slicing baseline (capacity-blind).
	even, err := lla.EvenSlice(w)
	if err != nil {
		return err
	}
	evenEval, err := lla.EvaluateAssignment(w, even, lla.WeightPathNormalized)
	if err != nil {
		return err
	}

	fmt.Printf("model view:    LLA utility %.2f (feasible: %v)\n", snap.Utility, snap.Feasible(1e-3))
	fmt.Printf("               even-slice utility %.2f (max resource overload %.2f)\n\n",
		evenEval.Utility, evenEval.MaxResourceViolation)

	const simMs = 120000
	llaLat, err := measure(w, snap.Shares, 7, simMs)
	if err != nil {
		return err
	}
	evenLat, err := measure(w, sharesFor(w, even.LatMs), 7, simMs)
	if err != nil {
		return err
	}

	fmt.Println("measured end-to-end latency (ms):")
	fmt.Println("task        policy       p50      p95      p99   deadline")
	for ti, t := range w.Tasks {
		fmt.Printf("%-11s lla     %8.1f %8.1f %8.1f %10.0f\n", t.Name, llaLat[ti][0], llaLat[ti][1], llaLat[ti][2], t.CriticalMs)
		fmt.Printf("%-11s even    %8.1f %8.1f %8.1f %10.0f\n", t.Name, evenLat[ti][0], evenLat[ti][1], evenLat[ti][2], t.CriticalMs)
	}
	fmt.Println()
	if evenEval.MaxResourceViolation > 0.01 {
		fmt.Println("(the capacity-blind even slicer overloads the scarce radios; LLA prices them)")
	} else {
		fmt.Printf("(both are feasible here, but LLA's utility %.0f beats even slicing's %.0f by\n",
			snap.Utility, evenEval.Utility)
		fmt.Println(" spending the scarce radio capacity where the deadlines are tight)")
	}
	return nil
}

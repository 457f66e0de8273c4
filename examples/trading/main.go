// Trading: the program-trading scenario from the paper's introduction.
// Market data fans out to a pricing engine and a risk monitor while order
// flow competes for the same network uplink and CPUs. LLA continuously
// balances the shares; mid-run the market data rate surges (raising the
// pricing pipeline's minimum shares) and a CPU loses capacity, and the
// optimizer re-converges to a new allocation — the paper's workload and
// resource variations (Section 1).
//
//	go run ./examples/trading
package main

import (
	"fmt"
	"os"

	"lla"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trading:", err)
		os.Exit(1)
	}
}

// buildWorkload assembles the trading floor: three tasks over two CPUs and
// two links.
func buildWorkload() (*lla.Workload, error) {
	// Market data pipeline: feed handler fans out to pricing and risk.
	md, err := lla.NewTask("market-data", 50).
		Trigger(lla.Bursty(5, 400, 300)).
		SubtaskOpts(lla.Subtask{Name: "feed", Resource: "cpu-md", ExecMs: 1, MinShare: 0.2}).
		SubtaskOpts(lla.Subtask{Name: "price", Resource: "cpu-strat", ExecMs: 2, MinShare: 0.2}).
		SubtaskOpts(lla.Subtask{Name: "risk", Resource: "link-lan", ExecMs: 2, MinShare: 0.1}).
		Edge("feed", "price").
		Edge("feed", "risk").
		Build()
	if err != nil {
		return nil, err
	}

	// Order pipeline: strategy decision then exchange uplink; tight deadline.
	orders, err := lla.NewTask("orders", 30).
		Trigger(lla.Poisson(50)).
		SubtaskOpts(lla.Subtask{Name: "decide", Resource: "cpu-strat", ExecMs: 3, MinShare: 0.1}).
		SubtaskOpts(lla.Subtask{Name: "send", Resource: "link-wan", ExecMs: 2, MinShare: 0.1}).
		Chain("decide", "send").
		Build()
	if err != nil {
		return nil, err
	}

	// Analytics: elastic background model fitting; benefits from surplus.
	analytics, err := lla.NewTask("analytics", 500).
		Trigger(lla.Periodic(200)).
		Subtask("aggregate", "cpu-md", 10).
		Subtask("fit", "cpu-strat", 15).
		Subtask("report", "link-lan", 5).
		Chain("aggregate", "fit", "report").
		Build()
	if err != nil {
		return nil, err
	}

	return &lla.Workload{
		Name:  "trading-floor",
		Tasks: []*lla.Task{md, orders, analytics},
		Resources: []lla.Resource{
			{ID: "cpu-md", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "cpu-strat", Kind: lla.CPU, Availability: 1, LagMs: 1},
			{ID: "link-lan", Kind: lla.Link, Availability: 1, LagMs: 0.5},
			{ID: "link-wan", Kind: lla.Link, Availability: 1, LagMs: 0.5},
		},
		Curves: map[string]lla.Curve{
			// Market data and orders approximate inelastic deadlines.
			"market-data": lla.ExpPenalty{A: 100, B: 2, Tau: 12},
			"orders":      lla.ExpPenalty{A: 100, B: 2, Tau: 8},
			// Analytics trades latency for surplus capacity.
			"analytics": lla.Linear{K: 2, CMs: 500},
		},
	}, nil
}

func printAllocation(w *lla.Workload, snap lla.Snapshot, label string) {
	fmt.Printf("--- %s (utility %.2f, iteration %d) ---\n", label, snap.Utility, snap.Iteration)
	for ti, t := range w.Tasks {
		fmt.Printf("%-12s crit.path %6.2f / %6.2f ms  shares:", t.Name, snap.CriticalPathMs[ti], t.CriticalMs)
		for si, s := range t.Subtasks {
			fmt.Printf(" %s=%.3f", s.Name, snap.Shares[ti][si])
		}
		fmt.Println()
	}
	fmt.Println()
}

func run() error {
	w, err := buildWorkload()
	if err != nil {
		return err
	}
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		return err
	}

	snap, ok := engine.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		return fmt.Errorf("initial optimization did not converge: %v", snap)
	}
	printAllocation(w, snap, "steady state")

	// Market surge: the feed rate triples, tripling the shares needed to
	// keep the market-data queues bounded.
	fmt.Println(">>> market data surge: minimum shares for the feed pipeline rise")
	for _, sub := range []struct {
		task, name string
		min        float64
	}{
		{"market-data", "feed", 0.5},
		{"market-data", "price", 0.5},
	} {
		if err := engine.SetMinShare(sub.task, sub.name, sub.min); err != nil {
			return err
		}
	}
	snap, ok = engine.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		return fmt.Errorf("did not re-converge after surge: %v", snap)
	}
	printAllocation(w, snap, "after market surge")

	// Partial CPU failure: the strategy CPU loses 30% of its capacity.
	fmt.Println(">>> resource degradation: cpu-strat availability drops to 0.7")
	if err := engine.SetAvailability("cpu-strat", 0.7); err != nil {
		return err
	}
	snap, ok = engine.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		return fmt.Errorf("did not re-converge after degradation: %v", snap)
	}
	printAllocation(w, snap, "after degradation")
	return nil
}

// Distributed: run LLA as genuinely distributed resource and controller
// nodes exchanging price/latency messages over TCP on localhost, and verify
// the converged allocation matches the synchronous engine.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"math"
	"os"

	"lla"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	w := lla.BaseWorkload()

	// Registry: every node name gets a kernel-assigned localhost port.
	registry := map[string]string{"coordinator": "127.0.0.1:0"}
	for _, t := range w.Tasks {
		registry["ctl/"+t.Name] = "127.0.0.1:0"
	}
	for _, r := range w.Resources {
		registry["res/"+r.ID] = "127.0.0.1:0"
	}
	net := lla.NewTCPNetwork(registry)

	rt, err := lla.NewDistributed(w, lla.Config{}, net)
	if err != nil {
		return err
	}
	defer rt.Close()

	fmt.Printf("running %d controller nodes and %d resource nodes over TCP...\n",
		len(w.Tasks), len(w.Resources))
	res, err := rt.RunUntilKKT(3000)
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v after %d rounds, utility %.3f\n\n", res.Converged, res.Rounds, res.Utility)

	// Cross-check against the synchronous engine run for the same rounds.
	engine, err := lla.NewEngine(lla.BaseWorkload(), lla.Config{})
	if err != nil {
		return err
	}
	engine.Run(res.Rounds, nil)
	want := engine.Snapshot()
	maxDiff := 0.0
	for ti := range res.LatMs {
		for si := range res.LatMs[ti] {
			if d := math.Abs(res.LatMs[ti][si] - want.LatMs[ti][si]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("synchronous engine after %d iterations: utility %.3f\n", res.Rounds, want.Utility)
	fmt.Printf("max per-subtask latency difference vs engine: %.2e ms\n\n", maxDiff)

	fmt.Println("final resource prices (mu):")
	for ri, r := range w.Resources {
		fmt.Printf("  %-4s %8.2f\n", r.ID, res.Mu[ri])
	}
	return nil
}

// Admission: price-driven admission control layered on top of LLA, as the
// paper suggests (Section 3.2: "We assume any admission control is layered
// on top of our approach"). A running engine is wrapped in an
// AdmissionController; each arriving task passes three gates — the static
// necessary conditions, a price screen against the live dual variables, and
// a bounded warm-started trial optimization on a scratch engine
// (the paper's Section 5.4 schedulability test, made incremental) — and
// admitted tasks are enacted with a warm-started re-convergence. Rejected
// candidates are quarantined with event-counted backoff so repeat offers
// stay cheap, and a price-guided Placer picks each subtask's resource at
// the live prices instead of trusting the advisory bindings.
//
//	go run ./examples/admission
package main

import (
	"fmt"
	"os"

	"lla"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "admission:", err)
		os.Exit(1)
	}
}

// offer wraps a template task in a placed candidate: the bindings inside
// tpl are advisory, and a nil candidate set lets the placer choose any
// workload resource per stage at the live prices.
func offer(ctrl *lla.AdmissionController, tpl lla.ChurnTemplate, name string, advisory []string) error {
	t, curve, err := tpl.Instantiate(name, advisory)
	if err != nil {
		return err
	}
	d, err := ctrl.OfferPlaced(lla.PlacedCandidate{Task: t, Curve: curve})
	if err != nil {
		return err
	}
	report(d)
	return nil
}

// report prints one decision-log entry.
func report(d lla.AdmissionDecision) {
	verdict := "REJECT"
	if d.Admitted {
		verdict = "ADMIT "
	}
	if d.Kind == "departure" {
		verdict = "DEPART"
	}
	fmt.Printf("%s %-14s gate=%-10s %s\n", verdict, d.Task, d.Stage, d.Reason)
	if d.Admitted && d.ReconvergeIters > 0 {
		fmt.Printf("       re-converged in %d warm-started iterations, utility now %.2f\n",
			d.ReconvergeIters, d.Utility)
	}
}

func run() error {
	resources := []lla.Resource{
		{ID: "node-a", Kind: lla.CPU, Availability: 1, LagMs: 1},
		{ID: "node-b", Kind: lla.CPU, Availability: 1, LagMs: 1},
		{ID: "wan", Kind: lla.Link, Availability: 0.8, LagMs: 2},
	}
	resIDs := []string{"node-a", "node-b", "wan"}

	// The running system starts with one resident three-stage pipeline.
	residentTpl := lla.ChurnTemplate{Name: "resident", CriticalMs: 150, StageExecMs: []float64{4, 3, 4}, UtilityK: 2}
	resident, curve, err := residentTpl.Instantiate("resident", resIDs)
	if err != nil {
		return err
	}
	w := &lla.Workload{
		Name:      "admission",
		Tasks:     []*lla.Task{resident},
		Resources: resources,
		Curves:    map[string]lla.Curve{"resident": curve},
	}
	engine, err := lla.NewEngine(w, lla.Config{})
	if err != nil {
		return err
	}
	defer engine.Close()
	snap, _ := engine.RunUntilKKT(4000, 1e-9, 3, 1e-6)
	fmt.Printf("running system: 1 task, utility %.2f\n\n", snap.Utility)

	// The controller screens offers against the converged prices; the
	// placer rebinds each stage to the cheapest feasible resource.
	ctrl := lla.NewAdmissionController(engine, lla.AdmissionConfig{})
	ctrl.UsePlacer(lla.NewPlacer())

	// A stream of candidates with progressively tighter demands. Advisory
	// bindings deliberately pile onto node-a; the placer spreads them.
	loose := lla.ChurnTemplate{Name: "batch", CriticalMs: 400, StageExecMs: []float64{6, 5}, UtilityK: 2}
	medium := lla.ChurnTemplate{Name: "interactive", CriticalMs: 90, StageExecMs: []float64{5, 4}, UtilityK: 2}
	impossible := lla.ChurnTemplate{Name: "impossible", CriticalMs: 8, StageExecMs: []float64{5, 5}, UtilityK: 2}
	advisory := []string{"node-a", "node-a"}

	if err := offer(ctrl, loose, "batch", advisory); err != nil {
		return err
	}
	if err := offer(ctrl, medium, "interactive", advisory); err != nil {
		return err
	}
	// Fails the static floors: no allocation can meet an 8 ms deadline.
	if err := offer(ctrl, impossible, "impossible", advisory); err != nil {
		return err
	}
	// An immediate repeat offer hits the quarantine, not the full gates.
	if err := offer(ctrl, impossible, "impossible", advisory); err != nil {
		return err
	}

	// A departure frees capacity; the remaining tasks re-converge warm.
	d, err := ctrl.Remove("batch")
	if err != nil {
		return err
	}
	report(d)

	// Enough controller events have passed that the quarantine has
	// expired: the repeat offer is evaluated for real again (and fails the
	// same static gate — backoff just makes retries cheap, not successful).
	if err := offer(ctrl, impossible, "impossible", advisory); err != nil {
		return err
	}

	fmt.Println("\nfinal allocation:")
	final := engine.Snapshot()
	for ti, t := range engine.Problem().Workload().Tasks {
		fmt.Printf("  %-14s crit.path %6.2f / %6.0f ms, stages on", t.Name, final.CriticalPathMs[ti], t.CriticalMs)
		for _, s := range t.Subtasks {
			fmt.Printf(" %s", s.Resource)
		}
		fmt.Println()
	}
	fmt.Printf("\ndecision log: %d entries, final utility %.2f\n", len(ctrl.Log()), engine.Snapshot().Utility)
	return nil
}

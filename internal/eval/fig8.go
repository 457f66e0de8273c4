package eval

import (
	"fmt"

	"lla/internal/closedloop"
	"lla/internal/sim"
	"lla/internal/stats"
	"lla/internal/workload"
)

// Fig8 reproduces Figure 8, the system experiment with online model error
// correction (Section 6): the four-task prototype workload runs on the
// simulated testbed (quantum-scheduled CPUs with a reserved GC share) while
// LLA continuously assigns shares from its latency model. Mid-run, error
// correction is enabled: high-percentile measured latencies are compared
// against the model's prediction, the additive error is smoothed into the
// share functions, and the optimizer discovers it can meet the fast tasks'
// critical time with the minimum share (0.2), reallocating the surplus to
// the slow tasks (0.25) — the paper reports -23% / +32% share changes.
//
// The run is driven by the closedloop package, the library's packaging of
// the paper's deployed system shape.
func Fig8(opts Options) (*Result, error) {
	epochs, epochMs := 40, 1000.0
	enableAt := 15
	if opts.Quick {
		epochs, enableAt, epochMs = 14, 5, 600
	}

	loop, err := closedloop.New(
		workload.Prototype(),
		opts.engineConfig(),
		sim.Config{Scheduler: sim.Quantum, QuantumMs: 5, Seed: opts.Seed + 1},
		closedloop.Config{EpochMs: epochMs},
	)
	if err != nil {
		return nil, err
	}
	opts.attach(loop.Engine())

	res := &Result{
		ID:    "fig8",
		Title: "System experiment with model error correction (prototype workload)",
	}
	fastShare := stats.NewSeries("fast-share")
	slowShare := stats.NewSeries("slow-share")
	fastErr := stats.NewSeries("fast-errMs")

	var beforeFast, beforeSlow float64
	observe := func(e closedloop.Epoch) {
		tSec := e.SimTimeMs / 1000
		fastShare.Append(tSec, e.Snapshot.Shares[0][0])
		slowShare.Append(tSec, e.Snapshot.Shares[2][0])
		fastErr.Append(tSec, e.ErrMs[0][0])
		if e.Index == enableAt-1 {
			beforeFast, beforeSlow = e.Snapshot.Shares[0][0], e.Snapshot.Shares[2][0]
		}
	}

	// Phase 1: pure model, no correction (the paper starts this way).
	loop.SetCorrection(false)
	if err := loop.RunEpochs(enableAt, observe); err != nil {
		return nil, err
	}
	// Phase 2: enable online error correction.
	loop.SetCorrection(true)
	if err := loop.RunEpochs(epochs-enableAt, observe); err != nil {
		return nil, err
	}
	afterFast, afterSlow := fastShare.Last(), slowShare.Last()

	res.Series = append(res.Series, fastShare, slowShare, fastErr)
	summary := &Table{
		Title:  "Share allocation before/after enabling error correction",
		Header: []string{"subtask class", "before", "after", "change%", "paper before", "paper after", "paper change%"},
	}
	summary.AddRow("fast (tasks 1-2)", f3(beforeFast), f3(afterFast),
		f1((afterFast/beforeFast-1)*100), "0.26", "0.20", "-23")
	summary.AddRow("slow (tasks 3-4)", f3(beforeSlow), f3(afterSlow),
		f1((afterSlow/beforeSlow-1)*100), "0.19", "0.25", "+32")
	res.Tables = append(res.Tables, summary)

	res.Notes = append(res.Notes,
		fmt.Sprintf("smoothed fast-subtask model error: %.1f ms (negative: model over-predicts)", fastErr.Last()),
		fmt.Sprintf("enactment policy pushed %d allocations over %d epochs", loop.Enactments(), epochs),
		"paper: after correction the fast subtasks drop to their minimum share (0.2) and the",
		"slow subtasks absorb the surplus (0.25); the model-based pre-correction shares differ",
		"slightly (we measure the model optimum 0.286/0.164, the paper observed 0.26/0.19 on",
		"real hardware).",
	)
	return res, nil
}

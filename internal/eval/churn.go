package eval

import (
	"fmt"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/share"
	"lla/internal/stats"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// churnPool builds the static substrate of the churn experiment: four unit
// CPUs and one permanent resident pipeline (the engine always needs at
// least one task; it doubles as the long-lived service churn plays out
// around).
func churnPool() *workload.Workload {
	base := task.NewBuilder("base", 150).
		Trigger(task.Periodic(100)).
		Subtask("base-s0", "r0", 4).
		Subtask("base-s1", "r1", 3).
		Subtask("base-s2", "r2", 4).
		Chain("base-s0", "base-s1", "base-s2").
		MustBuild()
	return &workload.Workload{
		Name:  "churn",
		Tasks: []*task.Task{base},
		Resources: []share.Resource{
			{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r1", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r2", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r3", Kind: share.CPU, Availability: 1, LagMs: 1},
		},
		Curves: map[string]utility.Curve{"base": utility.Linear{K: 2, CMs: 150}},
	}
}

// churnTemplates are the task shapes arrivals are drawn from. "burst" has a
// deadline tight enough that it only fits on uncongested resources — it is
// what the admission gates exist to say no to.
var churnTemplates = []workload.ChurnTemplate{
	{Name: "web", CriticalMs: 120, StageExecMs: []float64{4, 3}, UtilityK: 2},
	{Name: "stream", CriticalMs: 90, StageExecMs: []float64{5, 4, 3}, UtilityK: 2},
	{Name: "burst", CriticalMs: 17, StageExecMs: []float64{6, 5}, UtilityK: 2},
}

// churnPolicyRun is the measured outcome of replaying one churn trace under
// one admission policy.
type churnPolicyRun struct {
	label      string
	offered    int
	admitted   int
	rejected   map[string]int // by gate stage
	departures int
	rebalances int
	violations int // events after which the live system was infeasible
	events     int
	sumReconv  int
	// warmupRounds is how many rounds the substrate engine took to converge
	// before the trace replay began (-1 = budget exhausted).
	warmupRounds int
	utility      *stats.Series
	reconv       *stats.Series
	finalUtil    float64
	resident     int
}

// replayChurn drives one controller through the trace. Every event is
// followed by a rebalance opportunity and a feasibility probe of the live
// engine: an event whose settled state still violates a critical time or a
// resource capacity beyond tol counts as a violation event.
func replayChurn(opts Options, trace []workload.ChurnEvent, cfg admit.Config, label string) (*churnPolicyRun, error) {
	eng, err := core.NewEngine(churnPool(), opts.engineConfig())
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	opts.attach(eng)
	warmSnap, warmOK := eng.RunUntilKKT(3000, core.StopKKTTol, core.StopWindow, core.StopTol)

	ctrl := admit.New(eng, cfg)
	ctrl.UsePlacer(admit.NewPlacer())
	if opts.Observer != nil {
		ctrl.Observe(opts.Observer)
	}

	run := &churnPolicyRun{
		label:        label,
		rejected:     make(map[string]int),
		utility:      stats.NewSeries("utility-" + label),
		reconv:       stats.NewSeries("reconverge-" + label),
		warmupRounds: -1,
	}
	if warmOK {
		run.warmupRounds = warmSnap.Iteration
	}
	const tol = 1e-3
	for _, ev := range trace {
		if ev.Arrival {
			run.offered++
			tpl := churnTemplates[ev.Template]
			// Placeholder bindings: the price-guided placer rebinds each stage.
			ph := make([]string, len(tpl.StageExecMs))
			for i := range ph {
				ph[i] = "r0"
			}
			t, curve, err := tpl.Instantiate(ev.Name, ph)
			if err != nil {
				return nil, err
			}
			d, err := ctrl.OfferPlaced(admit.Candidate{Task: t, Curve: curve})
			if err != nil {
				return nil, err
			}
			if d.Admitted {
				run.admitted++
				run.sumReconv += d.ReconvergeIters
				run.reconv.Append(float64(run.events), float64(d.ReconvergeIters))
			} else {
				run.rejected[d.Stage]++
			}
		} else {
			d, err := ctrl.Remove(ev.Name)
			if err != nil {
				return nil, err
			}
			if d.Admitted {
				run.departures++
				run.sumReconv += d.ReconvergeIters
			}
		}
		if d, moved, err := ctrl.MaybeRebalance(); err != nil {
			return nil, err
		} else if moved {
			run.rebalances++
			run.sumReconv += d.ReconvergeIters
		}
		run.events++
		pr := eng.Probe()
		run.utility.Append(float64(run.events), pr.Utility)
		if pr.MaxResourceViolation > tol || pr.MaxPathViolationFrac > tol {
			run.violations++
		}
	}
	run.finalUtil = eng.Probe().Utility
	run.resident = len(eng.Problem().Tasks)
	return run, nil
}

// Churn evaluates price-driven admission control under a high-churn arrival
// process (Section 3.2 layers admission control above the latency
// assignment; Section 5.4 supplies the sufficient test the trial gate
// runs). One seeded Poisson trace of arriving/departing pipeline instances
// is replayed twice: once gated by the full admission controller (static
// floors, price screen, warm-started trial optimization) and once under the
// admit-everything baseline. The gated policy must keep the live system
// free of critical-time violations; the baseline shows what churn does to a
// system that cannot say no.
func Churn(opts Options) (*Result, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 7
	}
	horizon := 2400.0
	if opts.Quick {
		horizon = 700
	}
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Seed:               seed,
		MeanInterarrivalMs: 40,
		MeanLifetimeMs:     260,
		HorizonMs:          horizon,
		Templates:          churnTemplates,
	})
	if err != nil {
		return nil, err
	}

	gated, err := replayChurn(opts, trace, admit.Config{}, "gated")
	if err != nil {
		return nil, err
	}
	baseline, err := replayChurn(opts, trace, admit.Config{AdmitAll: true}, "admit-all")
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "churn",
		Title: fmt.Sprintf("Admission control under churn (seed %d, %d events over %.0f ms)", seed, len(trace), horizon),
	}
	res.RoundsToConverge = gated.warmupRounds
	summary := &Table{
		Title: "Policy comparison over one trace",
		Header: []string{"policy", "offered", "admitted", "rej static", "rej price",
			"rej trial", "rej quar", "departed", "rebalanced", "viol events", "viol rate", "mean reconv", "final util", "resident"},
	}
	for _, run := range []*churnPolicyRun{gated, baseline} {
		meanReconv := 0.0
		if n := run.admitted + run.departures + run.rebalances; n > 0 {
			meanReconv = float64(run.sumReconv) / float64(n)
		}
		summary.AddRow(run.label,
			fmt.Sprintf("%d", run.offered),
			fmt.Sprintf("%d", run.admitted),
			fmt.Sprintf("%d", run.rejected[admit.StageStatic]+run.rejected[admit.StagePlace]),
			fmt.Sprintf("%d", run.rejected[admit.StagePrice]),
			fmt.Sprintf("%d", run.rejected[admit.StageTrial]),
			fmt.Sprintf("%d", run.rejected[admit.StageQuarantine]),
			fmt.Sprintf("%d", run.departures),
			fmt.Sprintf("%d", run.rebalances),
			fmt.Sprintf("%d", run.violations),
			f3(float64(run.violations)/float64(max(run.events, 1))),
			f1(meanReconv),
			f1(run.finalUtil),
			fmt.Sprintf("%d", run.resident),
		)
	}
	res.Tables = append(res.Tables, summary)
	res.Series = append(res.Series, gated.utility, baseline.utility, gated.reconv)

	res.Notes = append(res.Notes,
		fmt.Sprintf("gated violation events: %d (acceptance: 0 — admitted work always fits)", gated.violations),
		fmt.Sprintf("admit-all violation events: %d of %d (%.0f%% of the trace is spent infeasible)",
			baseline.violations, baseline.events, 100*float64(baseline.violations)/float64(max(baseline.events, 1))),
		"decisions are event-counted and price-driven: the same seed yields the same decision log at any worker count.",
	)
	if gated.violations == 0 && baseline.violations > gated.violations {
		res.Notes = append(res.Notes, "verdict: gated admission beats admit-everything on constraint violations, as required.")
	} else {
		res.Notes = append(res.Notes, "verdict: FAILED — gated admission did not beat the admit-everything baseline.")
	}
	return res, nil
}

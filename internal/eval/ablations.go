package eval

import (
	"fmt"
	"math"
	"strings"

	"lla/internal/baseline"
	"lla/internal/core"
	"lla/internal/stats"
	"lla/internal/task"
	"lla/internal/workload"
)

// AblationWeights compares the utility variants of Section 3.2 (sum,
// path-weighted, raw path counts) on the base workload: achieved utility,
// iterations to convergence and constraint satisfaction.
func AblationWeights(opts Options) (*Result, error) {
	iters := 8000
	if opts.Quick {
		iters = 2500
	}
	res := &Result{
		ID:    "ablation-weights",
		Title: "Utility variants (Section 3.2): sum vs path-weighted vs raw path counts",
	}
	tbl := &Table{
		Title:  "Variant comparison (base workload)",
		Header: []string{"variant", "converged", "iters", "utility", "max res viol", "max path viol"},
	}
	for _, mode := range []task.WeightMode{task.WeightSum, task.WeightPathNormalized, task.WeightPathRaw} {
		ecfg := opts.engineConfig()
		ecfg.WeightMode = mode
		e, err := core.NewEngine(workload.Base(), ecfg)
		if err != nil {
			return nil, err
		}
		opts.attach(e)
		snap, ok := e.RunUntilKKT(iters, core.StopKKTTol, core.StopWindow, core.StopTol)
		tbl.AddRow(mode.String(), fmt.Sprintf("%v", ok), fmt.Sprintf("%d", snap.Iteration),
			f2(snap.Utility), f3(snap.MaxResourceViolation), f3(snap.MaxPathViolationFrac))
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"paper (Section 5.2): the sum variant's convergence properties were not different;",
		"utilities are not directly comparable across variants (different objective scales).",
	)
	return res, nil
}

// AblationBaselines compares LLA against the capacity-blind deadline-slicing
// heuristics on the base workload and an overprovisioned variant, and
// certifies LLA's utility with the dual bound at its own prices
// (core.Engine.DualBound): no feasible allocation does better than the bound.
func AblationBaselines(opts Options) (*Result, error) {
	iters := 8000
	if opts.Quick {
		iters = 2500
	}
	res := &Result{
		ID:    "ablation-baselines",
		Title: "LLA vs its dual bound vs deadline-slicing heuristics",
	}
	var gaps []string
	for _, scenario := range []struct {
		name      string
		critScale float64
	}{
		{"congested (paper base workload)", 1},
		{"overprovisioned (critical times x4)", 4},
	} {
		w, err := workload.Replicate(workload.Base(), 1, scenario.critScale)
		if err != nil {
			return nil, err
		}
		tbl := &Table{
			Title:  scenario.name,
			Header: []string{"algorithm", "utility", "max res viol", "max path viol", "feasible"},
		}

		e, err := core.NewEngine(w, opts.engineConfig())
		if err != nil {
			return nil, err
		}
		opts.attach(e)
		snap, _ := e.RunUntilKKT(iters, core.StopKKTTol, core.StopWindow, core.StopTol)
		tbl.AddRow("LLA (distributed)", f2(snap.Utility), f3(snap.MaxResourceViolation),
			f3(snap.MaxPathViolationFrac), fmt.Sprintf("%v", snap.Feasible(1e-2)))

		bound := e.DualBound()
		tbl.AddRow("dual bound at LLA's prices", f2(bound), "-", "-", "-")
		gaps = append(gaps, fmt.Sprintf("%.1e %s", (bound-snap.Utility)/max(1, math.Abs(snap.Utility)), scenario.name))

		for _, bl := range []struct {
			name string
			mk   func(*workload.Workload) (*baseline.Assignment, error)
		}{
			{"even slicing", baseline.EvenSlice},
			{"WCET-proportional slicing", baseline.ProportionalSlice},
		} {
			a, err := bl.mk(w)
			if err != nil {
				return nil, err
			}
			ev, err := baseline.Evaluate(w, a, task.WeightPathNormalized)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(bl.name, f2(ev.Utility), f3(ev.MaxResourceViolation),
				f3(ev.MaxPathViolationFrac), fmt.Sprintf("%v", ev.Feasible(1e-2)))
		}
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = append(res.Notes,
		"the slicing heuristics ignore resource capacity (the paper notes this of BST/AST):",
		"on the congested workload they overload resources; where all are feasible, LLA dominates.",
		"no feasible allocation's utility exceeds the dual bound; (bound − LLA)/max(1, |LLA|) is",
		strings.Join(gaps, ", ")+".",
	)
	return res, nil
}

// Adaptation exercises the abstract's claim that LLA "adapts to both
// workload and resource variations": a capacity drop and a rate surge
// mid-run, recording the utility trajectory through both disturbances.
func Adaptation(opts Options) (*Result, error) {
	phase := 400
	if opts.Quick {
		phase = 150
	}
	w, err := workload.Replicate(workload.Base(), 1, 4)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(w, opts.engineConfig())
	if err != nil {
		return nil, err
	}
	opts.attach(e)

	res := &Result{
		ID:    "adaptation",
		Title: "Online adaptation to resource and workload variations",
	}
	series := stats.NewSeries("utility")
	record := func(s core.Snapshot) { series.Append(float64(s.Iteration), s.Utility) }

	e.Run(phase, record)
	u1 := e.Snapshot()

	// Resource variation: r0 loses 30% capacity.
	if err := e.SetAvailability("r0", 0.7); err != nil {
		return nil, err
	}
	e.Run(phase, record)
	u2 := e.Snapshot()

	// Workload variation: task1's root subtask needs a 0.3 share floor.
	if err := e.SetMinShare(w.Tasks[0].Name, "T11", 0.3); err != nil {
		return nil, err
	}
	e.Run(phase, record)
	u3 := e.Snapshot()

	res.Series = append(res.Series, series)
	tbl := &Table{
		Title:  "Utility across disturbances",
		Header: []string{"phase", "utility", "feasible"},
	}
	tbl.AddRow("steady state", f2(u1.Utility), fmt.Sprintf("%v", u1.Feasible(1e-2)))
	tbl.AddRow("after 30% capacity loss on r0", f2(u2.Utility), fmt.Sprintf("%v", u2.Feasible(1e-2)))
	tbl.AddRow("after min-share surge on T11", f2(u3.Utility), fmt.Sprintf("%v", u3.Feasible(1e-2)))
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"each disturbance lowers the achievable utility; the optimizer re-converges to the",
		"new optimum without restarting (prices adapt incrementally).",
	)
	return res, nil
}

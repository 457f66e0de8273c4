package eval

import (
	"fmt"
	"math"

	"lla/internal/core"
	"lla/internal/workload"
)

// Table1 reproduces the paper's Table 1: it runs LLA with adaptive step
// sizes on the base three-task workload until convergence and reports the
// optimal per-subtask latencies and per-task critical paths next to the
// published values.
func Table1(opts Options) (*Result, error) {
	iters := 8000
	if opts.Quick {
		iters = 1500
	}
	w := workload.Base()
	e, err := core.NewEngine(w, opts.engineConfig())
	if err != nil {
		return nil, err
	}
	opts.attach(e)
	snap, converged := e.RunUntilKKT(iters, core.StopKKTTol, core.StopWindow, core.StopTol)

	res := &Result{
		ID:    "table1",
		Title: "Task parameters and optimization results (base 3-task workload)",
	}
	res.RoundsToConverge = -1
	if converged {
		res.RoundsToConverge = snap.Iteration
	}

	lat := &Table{
		Title:  "Per-subtask optimal latencies (ms)",
		Header: []string{"task", "subtask", "resource", "exec", "paper", "measured", "rel.err%"},
	}
	ref := workload.Table1LatenciesMs()
	var sumRel, maxRel float64
	var count int
	for ti, tk := range w.Tasks {
		for si, s := range tk.Subtasks {
			want := ref[tk.Name][s.Name]
			got := snap.LatMs[ti][si]
			rel := math.Abs(got-want) / want
			sumRel += rel
			count++
			if rel > maxRel {
				maxRel = rel
			}
			lat.AddRow(tk.Name, s.Name, s.Resource, f1(s.ExecMs), f1(want), f2(got), f2(rel*100))
		}
	}
	res.Tables = append(res.Tables, lat)

	cp := &Table{
		Title:  "Critical paths vs critical times (ms)",
		Header: []string{"task", "crit.time", "paper crit.path", "measured crit.path", "slack%"},
	}
	refCP := workload.Table1CriticalPathsMs()
	for ti, tk := range w.Tasks {
		slack := (1 - snap.CriticalPathMs[ti]/tk.CriticalMs) * 100
		cp.AddRow(tk.Name, f1(tk.CriticalMs), f1(refCP[tk.Name]), f2(snap.CriticalPathMs[ti]), f2(slack))
	}
	res.Tables = append(res.Tables, cp)

	shares := &Table{
		Title:  "Resource saturation at the optimum",
		Header: []string{"resource", "share sum", "availability"},
	}
	for ri, sum := range snap.ShareSums {
		shares.AddRow(w.Resources[ri].ID, f3(sum), f2(w.Resources[ri].Availability))
	}
	res.Tables = append(res.Tables, shares)

	res.Notes = append(res.Notes,
		fmt.Sprintf("converged=%v after %d iterations, utility=%.2f", converged, snap.Iteration, snap.Utility),
		fmt.Sprintf("latency error vs Table 1: mean %.2f%%, max %.2f%%", sumRel/float64(count)*100, maxRel*100),
		"paper claim: critical path always less than 1% smaller than the critical time",
	)
	return res, nil
}

package eval

import (
	"fmt"
	"math"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/stats"
	"lla/internal/workload"
)

// solverDevTol is the fixed-point agreement tolerance: a solver has "reached
// the gradient fixed point" when every resource price, path price and
// subtask latency is within this relative deviation of the deep reference
// run's values.
const solverDevTol = 1e-6

// Solvers compares the two price solvers (DESIGN.md §12) on the
// Figure 6 scalability workloads. For each workload size it first runs the
// reference gradient projection to depth — that run's prices, path prices
// and latencies define the fixed point — then measures, for every solver at
// every worker count, how many rounds a fresh engine needs to bring all
// three within solverDevTol of it. Two invariants are asserted as the sweep
// runs: every solver reaches the same fixed point (Newton changes the
// trajectory, never the optimum), and a solver's rounds count is
// identical at every worker count (the sharded iteration is bitwise
// deterministic). A second measurement runs each solver under the KKT
// stationarity criterion (core.RunUntilKKT), which certifies the fixed point
// from the optimality conditions alone rather than against a reference
// trajectory.
func Solvers(opts Options) (*Result, error) {
	maxRounds, refRounds := 3000, 3000
	factors := []int{1, 2, 4}
	if opts.Quick {
		maxRounds, refRounds = 1200, 1200
		factors = []int{1, 2}
	}
	// Worker counts to cross-check: the serial path and the config's own
	// (parallel) setting. When the options already request serial, one pass
	// suffices.
	workerSweep := []int{1, opts.Workers}
	if opts.Workers == 1 {
		workerSweep = []int{1}
	}

	res := &Result{
		ID:    "solvers",
		Title: "Price-dynamics solver comparison (fig6 scalability workloads)",
	}
	summary := &Table{
		Title:  "Rounds to the gradient fixed point (dev ≤ 1e-6 on mu, lambda, latencies)",
		Header: []string{"tasks", "solver", "rounds", "speedup", "kkt rounds", "max dev", "fallbacks"},
	}

	const critScale = 8
	for _, factor := range factors {
		w, err := workload.Replicate(workload.Base(), factor, critScale)
		if err != nil {
			return nil, err
		}
		ref, err := core.NewEngine(w, opts.engineConfig())
		if err != nil {
			return nil, err
		}
		opts.attach(ref)
		ref.Run(refRounds, nil)
		refSnap := ref.Snapshot()

		gradientRounds := -1
		for _, solver := range price.Solvers() {
			var rounds, kktRounds int
			var dev float64
			var fallbacks uint64
			for wi, workers := range workerSweep {
				cfg := opts.engineConfig()
				cfg.Workers = workers
				cfg.PriceSolver = solver
				e, err := core.NewEngine(w, cfg)
				if err != nil {
					ref.Close()
					return nil, err
				}
				opts.attach(e)
				r := -1
				for i := 1; i <= maxRounds; i++ {
					e.Step()
					if maxSolverDev(e, ref, refSnap) <= solverDevTol {
						r = i
						break
					}
				}
				d := maxSolverDev(e, ref, refSnap)
				fb := e.SolverFallbacks()
				e.Close()
				if r < 0 {
					ref.Close()
					return nil, fmt.Errorf("eval: solver %s did not reach the gradient fixed point within %d rounds on the %d-task workload (dev %.3g)",
						solver, maxRounds, 3*factor, d)
				}
				if wi == 0 {
					rounds, dev, fallbacks = r, d, fb
				} else if r != rounds {
					ref.Close()
					return nil, fmt.Errorf("eval: solver %s rounds differ across worker counts (%d serial vs %d at workers=%d) — sharded iteration must be bitwise deterministic",
						solver, rounds, r, workers)
				}
			}

			// Independent certification: rounds to KKT stationarity, judged
			// from the optimality conditions rather than the reference run.
			kcfg := opts.engineConfig()
			kcfg.PriceSolver = solver
			ke, err := core.NewEngine(w, kcfg)
			if err != nil {
				ref.Close()
				return nil, err
			}
			opts.attach(ke)
			ksnap, kok := ke.RunUntilKKT(maxRounds, 1e-9, 3, 1e-6)
			ke.Close()
			kktRounds = -1
			if kok {
				kktRounds = ksnap.Iteration
			}

			if solver == price.SolverGradient {
				gradientRounds = rounds
				if res.RoundsToConverge == 0 || rounds > res.RoundsToConverge {
					res.RoundsToConverge = rounds
				}
			}
			speedup := "1.0x"
			if solver != price.SolverGradient && rounds > 0 {
				speedup = fmt.Sprintf("%.1fx", float64(gradientRounds)/float64(rounds))
			}
			summary.AddRow(fmt.Sprintf("%d", 3*factor), string(solver),
				fmt.Sprintf("%d", rounds), speedup, fmt.Sprintf("%d", kktRounds),
				fmt.Sprintf("%.2g", dev), fmt.Sprintf("%d", fallbacks))

			res.Series = append(res.Series, solverSeries(factor, solver, rounds))
		}
		ref.Close()
	}
	res.Tables = append(res.Tables, summary)
	res.Notes = append(res.Notes,
		"every solver reaches the reference gradient fixed point (asserted at 1e-6 on prices, path prices, latencies)",
		"rounds are identical at every worker count (asserted); each broadcast round is a full price round in the distributed runtime",
	)
	return res, nil
}

// solverSeries encodes one (workload, solver) rounds measurement as a
// single-point series so -csv exports carry the raw sweep data.
func solverSeries(factor int, solver price.Solver, rounds int) *stats.Series {
	s := stats.NewSeries(fmt.Sprintf("%d-tasks-%s", 3*factor, solver))
	s.Append(float64(3*factor), float64(rounds))
	return s
}

// maxSolverDev is the largest relative deviation between an engine's current
// point and the reference fixed point, over resource prices, subtask
// latencies and path prices.
func maxSolverDev(e, ref *core.Engine, refSnap core.Snapshot) float64 {
	d := 0.0
	rel := func(x, y float64) float64 { return math.Abs(x-y) / math.Max(1, math.Abs(y)) }
	s := e.Snapshot()
	for ri := range refSnap.Mu {
		if v := rel(s.Mu[ri], refSnap.Mu[ri]); v > d {
			d = v
		}
	}
	for ti := range refSnap.LatMs {
		for si := range refSnap.LatMs[ti] {
			if v := rel(s.LatMs[ti][si], refSnap.LatMs[ti][si]); v > d {
				d = v
			}
		}
		for pi := range ref.Controller(ti).Lambda {
			if v := rel(e.Controller(ti).Lambda[pi], ref.Controller(ti).Lambda[pi]); v > d {
				d = v
			}
		}
	}
	return d
}

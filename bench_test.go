// Benchmarks regenerating every table and figure of the paper's evaluation
// (Table 1, Figures 5-8), plus ablation benches for the design choices
// DESIGN.md calls out (utility variants, step-size policies, baselines,
// dynamic adaptation) and micro-benchmarks of the optimizer, simulator and
// distributed runtime.
//
// Custom metrics reported per benchmark:
//
//	utility        final aggregate utility
//	iters          iterations/rounds until convergence (or budget)
//	laterr_pct     mean per-subtask latency error vs the published Table 1
//	viol           max constraint violation at the end of the run
//
// Run with: go test -bench=. -benchmem
package lla_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"

	"lla"
	"lla/internal/baseline"
	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/eval"
	"lla/internal/fleet"
	"lla/internal/price"
	rec "lla/internal/recover"
	"lla/internal/sim"
	"lla/internal/task"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// BenchmarkTable1 regenerates Table 1: LLA on the base workload to
// convergence; reports the achieved utility and the mean relative latency
// error against the published values.
func BenchmarkTable1(b *testing.B) {
	ref := workload.Table1LatenciesMs()
	for i := 0; i < b.N; i++ {
		w := workload.Base()
		e, err := core.NewEngine(w, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
		if !ok {
			b.Fatal("did not converge")
		}
		var sumRel float64
		var n int
		for ti, tk := range w.Tasks {
			for si, s := range tk.Subtasks {
				want := ref[tk.Name][s.Name]
				sumRel += math.Abs(snap.LatMs[ti][si]-want) / want
				n++
			}
		}
		b.ReportMetric(snap.Utility, "utility")
		b.ReportMetric(float64(snap.Iteration), "iters")
		b.ReportMetric(sumRel/float64(n)*100, "laterr_pct")
	}
}

// BenchmarkFig5StepSizes regenerates Figure 5: utility-vs-iteration for
// fixed gamma in {0.1, 1, 10} and the adaptive heuristic (500 iterations
// each, as in the paper).
func BenchmarkFig5StepSizes(b *testing.B) {
	configs := []struct {
		name string
		step core.StepPolicy
	}{
		{"gamma=0.1", core.StepPolicy{Gamma: 0.1}},
		{"gamma=1", core.StepPolicy{Gamma: 1}},
		{"gamma=10", core.StepPolicy{Gamma: 10}},
		{"adaptive", core.StepPolicy{Adaptive: true, Gamma: 1}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEngine(workload.Base(), core.Config{Step: cfg.step})
				if err != nil {
					b.Fatal(err)
				}
				e.Run(500, nil)
				snap := e.Snapshot()
				b.ReportMetric(snap.Utility, "utility")
				b.ReportMetric(math.Max(snap.MaxResourceViolation, snap.MaxPathViolationFrac), "viol")
			}
		})
	}
}

// BenchmarkFig6Scalability regenerates Figure 6: convergence at 3, 6 and 12
// tasks with overprovisioned critical times.
func BenchmarkFig6Scalability(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(3*factor)+"tasks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workload.Replicate(workload.Base(), factor, 8)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.NewEngine(w, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				snap, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6)
				if !ok {
					b.Fatal("did not converge")
				}
				b.ReportMetric(snap.Utility, "utility")
				b.ReportMetric(snap.Utility/float64(3*factor), "utility_per_task")
				b.ReportMetric(float64(snap.Iteration), "iters")
			}
		})
	}
}

// BenchmarkFig7Schedulability regenerates Figure 7: the unschedulable
// six-task workload; reports the residual violation and the worst
// critical-path overshoot ratio.
func BenchmarkFig7Schedulability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := workload.Replicate(workload.Base(), 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEngine(w, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		e.Run(500, nil)
		snap := e.Snapshot()
		worst := 0.0
		for ti := range snap.CriticalPathMs {
			worst = math.Max(worst, snap.CriticalPathMs[ti]/snap.CriticalTimeMs[ti])
		}
		b.ReportMetric(math.Max(snap.MaxResourceViolation, snap.MaxPathViolationFrac), "viol")
		b.ReportMetric(worst, "critpath_ratio")
	}
}

// BenchmarkFig8ErrorCorrection regenerates Figure 8: the closed loop of
// optimizer, simulated testbed and online model error correction; reports
// the post-correction fast and slow shares (paper: 0.20 and 0.25).
func BenchmarkFig8ErrorCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig8(eval.Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		fast, _ := strconv.ParseFloat(res.Tables[0].Rows[0][2], 64)
		slow, _ := strconv.ParseFloat(res.Tables[0].Rows[1][2], 64)
		b.ReportMetric(fast, "fast_share")
		b.ReportMetric(slow, "slow_share")
	}
}

// BenchmarkWeightVariants is the Section 3.2 ablation: sum vs normalized vs
// raw path weighting on the base workload.
func BenchmarkWeightVariants(b *testing.B) {
	for _, mode := range []task.WeightMode{task.WeightSum, task.WeightPathNormalized, task.WeightPathRaw} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEngine(workload.Base(), core.Config{WeightMode: mode})
				if err != nil {
					b.Fatal(err)
				}
				snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
				if !ok {
					b.Fatal("did not converge")
				}
				b.ReportMetric(snap.Utility, "utility")
				b.ReportMetric(float64(snap.Iteration), "iters")
			}
		})
	}
}

// BenchmarkBaselines compares LLA against the deadline-slicing heuristics on
// the base workload.
func BenchmarkBaselines(b *testing.B) {
	b.Run("lla", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(workload.Base(), core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			snap, _ := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
			b.ReportMetric(snap.Utility, "utility")
			b.ReportMetric(math.Max(snap.MaxResourceViolation, snap.MaxPathViolationFrac), "viol")
		}
	})
	for _, bl := range []struct {
		name string
		mk   func(*workload.Workload) (*baseline.Assignment, error)
	}{
		{"even-slice", baseline.EvenSlice},
		{"wcet-proportional", baseline.ProportionalSlice},
	} {
		b.Run(bl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := workload.Base()
				a, err := bl.mk(w)
				if err != nil {
					b.Fatal(err)
				}
				ev, err := baseline.Evaluate(w, a, task.WeightPathNormalized)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ev.Utility, "utility")
				b.ReportMetric(math.Max(ev.MaxResourceViolation, ev.MaxPathViolationFrac), "viol")
			}
		})
	}
}

// BenchmarkAdaptation measures re-convergence after runtime variations (the
// abstract's "adapts to both workload and resource variations").
func BenchmarkAdaptation(b *testing.B) {
	b.Run("availability-drop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The base workload has zero slack (every resource saturated,
			// every path at its deadline), so any capacity loss is
			// infeasible; use the overprovisioned variant.
			w, err := workload.Replicate(workload.Base(), 1, 4)
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(w, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6); !ok {
				b.Fatal("initial convergence failed")
			}
			before := e.Iteration()
			if err := e.SetAvailability("r0", 0.7); err != nil {
				b.Fatal(err)
			}
			snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
			if !ok {
				b.Fatal("re-convergence failed")
			}
			b.ReportMetric(float64(snap.Iteration-before), "reconverge_iters")
			b.ReportMetric(snap.Utility, "utility")
		}
	})
	b.Run("rate-surge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(workload.Prototype(), core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6); !ok {
				b.Fatal("initial convergence failed")
			}
			before := e.Iteration()
			// The slow tasks' arrival rate rises ~23%: min share 0.13 ->
			// 0.16 (a larger surge would exceed the CPUs' capacity given
			// the fast tasks' deadline-driven 0.286 shares).
			for _, tn := range []string{"task3", "task4"} {
				for si := 1; si <= 3; si++ {
					name := "T" + tn[4:] + strconv.Itoa(si)
					if err := e.SetMinShare(tn, name, 0.16); err != nil {
						b.Fatal(err)
					}
				}
			}
			snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
			if !ok {
				b.Fatal("re-convergence failed")
			}
			b.ReportMetric(float64(snap.Iteration-before), "reconverge_iters")
		}
	})
}

// BenchmarkEngineStep measures the per-iteration cost of the synchronous
// optimizer on the base workload (21 subtasks, 8 resources).
func BenchmarkEngineStep(b *testing.B) {
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepLarge measures the per-iteration cost at 12 tasks.
func BenchmarkEngineStepLarge(b *testing.B) {
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScale measures steady-state Step cost across replication
// factors (Section 5.3's scaling axis) for the serial path (workers=1) and
// the sharded parallel path (workers=0, i.e. GOMAXPROCS). Compare the
// matching sub-benchmarks for the parallel speedup at each scale; allocs/op
// must be 0 for every variant.
func BenchmarkScale(b *testing.B) {
	for _, factor := range []int{8, 32, 128} {
		for _, workers := range []int{1, 0} {
			label := "parallel"
			if workers == 1 {
				label = "serial"
			}
			b.Run(fmt.Sprintf("x%d/%s", factor, label), func(b *testing.B) {
				w, err := workload.Replicate(workload.Base(), factor, 2)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.NewEngine(w, core.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 30; i++ {
					e.Step() // settle into the steady state
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.ReportMetric(float64(e.Workers()), "workers")
			})
		}
	}
}

// BenchmarkScaleParallel runs the paper's 64-fold replicated workload
// through both engine variants and reports the parallel speedup directly.
// The timed loop is the parallel engine's steady-state Step; allocs/op must
// report 0.
func BenchmarkScaleParallel(b *testing.B) {
	w, err := workload.Replicate(workload.Base(), 64, 2)
	if err != nil {
		b.Fatal(err)
	}
	serial, err := core.NewEngine(w, core.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer serial.Close()
	par, err := core.NewEngine(w, core.Config{Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	defer par.Close()
	const probe = 300
	for i := 0; i < 30; i++ {
		serial.Step()
		par.Step()
	}
	start := time.Now()
	for i := 0; i < probe; i++ {
		serial.Step()
	}
	serialNs := float64(time.Since(start).Nanoseconds()) / probe
	start = time.Now()
	for i := 0; i < probe; i++ {
		par.Step()
	}
	parNs := float64(time.Since(start).Nanoseconds()) / probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.Step()
	}
	b.ReportMetric(serialNs/parNs, "speedup")
	b.ReportMetric(serialNs, "serial_ns/iter")
	b.ReportMetric(float64(par.Workers()), "workers")
}

// BenchmarkEngineStepConverged measures the Step cost right after the KKT
// certificate first holds, on the Fig 6-scale workload (12 tasks, 84
// subtasks). This is the active set's headline number: a certified point is
// a bitwise fixed point, so from there Step only reads its skip flags.
// skipped_pct reports the fraction of controller solves skipped during the
// timed loop (100 at a frozen fixed point).
func BenchmarkEngineStepConverged(b *testing.B) {
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, ok := e.RunUntilKKT(3000, 1e-9, 3, 1e-6); !ok {
		b.Fatal("no KKT certificate")
	}
	e.ResetSparseStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	st := e.SparseStats()
	b.ReportMetric(float64(st.SkippedSolves)/float64(st.SkippedSolves+st.ExecutedSolves)*100, "skipped_pct")
}

// BenchmarkEngineSnapshot measures the Snapshot RunUntilKKT returns on exit,
// on engine-online's shape (bench/engine.go: 8 clusters of 100 layered-DAG
// tasks over 400 resources, replicated 12 times — 9 600 tasks, 47 748
// subtasks) right after its first KKT certificate, every grade cached. A
// fresh Snapshot carves its rows from shared chunks, so allocs/op counts
// chunks, not tasks; benchparse gates it against the previous report.
func BenchmarkEngineSnapshot(b *testing.B) {
	cfg := workload.DefaultClusteredConfig(1)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 8, 100, 12, 400
	cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 3, 7, false
	cfg.SlackFactor, cfg.CrossFraction = 400, 0.05
	w, err := workload.Clustered(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, ok := e.RunUntilKKT(3000, core.StopKKTTol, core.StopWindow, core.StopTol); !ok {
		b.Fatal("no KKT certificate")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = e.Snapshot()
	}
}

// snapshotSink keeps BenchmarkEngineSnapshot's result live.
var snapshotSink core.Snapshot

// BenchmarkFig6ScalabilitySparse models a long-running deployment at Figure
// 6's scales: converge on the sparse path, then keep iterating for 400 more
// steady-state iterations (a live system never stops stepping — that tail
// is where the active set pays). skipped_pct reports the controller solves
// skipped across the entire run, convergence phase included.
func BenchmarkFig6ScalabilitySparse(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(3*factor)+"tasks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workload.Replicate(workload.Base(), factor, 8)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.NewEngine(w, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				snap, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6)
				if !ok {
					b.Fatal("did not converge")
				}
				e.Run(400, nil) // steady-state tail of a live deployment
				st := e.SparseStats()
				total := st.SkippedSolves + st.ExecutedSolves
				b.ReportMetric(snap.Utility, "utility")
				b.ReportMetric(float64(snap.Iteration), "iters")
				b.ReportMetric(float64(st.SkippedSolves)/float64(total)*100, "skipped_pct")
				e.Close()
			}
		})
	}
}

// BenchmarkRoundsToConverge measures rounds-to-converge per price solver on
// the Figure 6 12-task workload under the KKT stationarity criterion
// (DESIGN.md §12) — the headline metric of the accelerated price dynamics.
// Every solver reaches the same fixed point; the accelerated ones must get
// there in no more rounds than the reference gradient (scripts/benchparse
// gates on the rounds metric, which is deterministic per solver). In the
// distributed runtime each round is a full broadcast round, so rounds saved
// here are network round-trips saved there.
func BenchmarkRoundsToConverge(b *testing.B) {
	for _, solver := range price.Solvers() {
		b.Run(string(solver), func(b *testing.B) {
			var rounds, fallbacks float64
			for i := 0; i < b.N; i++ {
				w, err := workload.Replicate(workload.Base(), 4, 8)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.NewEngine(w, core.Config{PriceSolver: solver})
				if err != nil {
					b.Fatal(err)
				}
				snap, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6)
				if !ok {
					b.Fatalf("solver %s did not reach KKT stationarity", solver)
				}
				rounds = float64(snap.Iteration)
				fallbacks = float64(e.SolverFallbacks())
				e.Close()
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(fallbacks, "fallbacks")
		})
	}
}

// BenchmarkRecoveryRounds measures crash-recovery cost as optimizer rounds
// to KKT stationarity (the same criterion as BenchmarkRoundsToConverge, so
// no convergence-window floor skews the comparison): "cold" re-converges a
// fresh engine from scratch, "warm" restores the on-converged checkpoint
// through the full durable path (encode, WAL write, Latest, decode, Restore)
// and re-converges from there. scripts/benchparse gates warm < cold — the
// checkpoint subsystem's whole value is that a restart never pays the cold
// price.
func BenchmarkRecoveryRounds(b *testing.B) {
	makeWorkload := func() *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	b.Run("cold", func(b *testing.B) {
		var rounds float64
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(makeWorkload(), core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			snap, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6)
			if !ok {
				b.Fatal("cold run did not reach KKT stationarity")
			}
			rounds = float64(snap.Iteration)
			e.Close()
		}
		b.ReportMetric(rounds, "rounds")
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		w, err := rec.NewWriter(dir)
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEngine(makeWorkload(), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		if _, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6); !ok {
			b.Fatal("reference run did not reach KKT stationarity")
		}
		if _, err := w.Save(rec.Capture(e, rec.CaptureOptions{Converged: true})); err != nil {
			b.Fatal(err)
		}
		var rounds float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp, _, err := rec.Latest(dir)
			if err != nil {
				b.Fatal(err)
			}
			restored, _, err := rec.Restore(cp, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			pre := restored.Probe().Iteration
			snap, ok := restored.RunUntilKKT(4000, 1e-9, 3, 1e-6)
			if !ok {
				b.Fatal("warm restore did not reach KKT stationarity")
			}
			rounds = float64(snap.Iteration - pre)
			restored.Close()
		}
		b.ReportMetric(rounds, "rounds")
	})
}

// BenchmarkFleetConverge measures the hierarchical sharded fleet
// (SHARDING.md). "clustered" runs the mid-size clustered workload through a
// 4-shard fleet and the single-engine reference side by side, reporting the
// aggregator's boundary rounds against the single engine's KKT rounds —
// scripts/benchparse gates rounds <= 2x single_rounds, the hierarchy's
// price-iteration overhead bound. "1m" is the headline scale target: one
// million subtasks partitioned across 16 shards, end to end to
// certification, with serial sweeps; benchparse gates converged == 1.
// "1m-parallel" is the same problem with 16 concurrent shard sweeps —
// benchparse gates identical round counts and the parallel speedup. All runs
// are deterministic (seeded partitions, per-shard bitwise-reproducible
// sweeps, schedule-independent rounds).
func BenchmarkFleetConverge(b *testing.B) {
	b.Run("clustered", func(b *testing.B) {
		var rounds, single, boundary float64
		for i := 0; i < b.N; i++ {
			w, err := workload.Clustered(workload.DefaultClusteredConfig(1))
			if err != nil {
				b.Fatal(err)
			}
			f, err := fleet.New(w, fleet.Config{Shards: 4, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res, err := f.Run()
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("fleet did not certify")
			}
			e, err := core.NewEngine(w, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			snap, ok := e.RunUntilKKT(20000, 1e-6, 3, 1e-6)
			e.Close()
			if !ok {
				b.Fatal("single engine did not reach KKT stationarity")
			}
			rounds = float64(res.Rounds)
			single = float64(snap.Iteration)
			boundary = float64(res.BoundaryCount)
		}
		b.ReportMetric(rounds, "rounds")
		b.ReportMetric(single, "single_rounds")
		b.ReportMetric(boundary, "boundary")
	})
	// "1m" (serial sweeps) and "1m-parallel" (16 concurrent sweeps) run the
	// identical problem; benchparse gates that the parallel run certifies in
	// the SAME number of rounds (bitwise determinism at the round level) and
	// at <= 0.5x the serial wall-clock when >= 4 CPUs are available.
	bench1m := func(shardWorkers int) func(*testing.B) {
		return func(b *testing.B) {
			cfg := workload.DefaultClusteredConfig(1)
			cfg.Clusters = 16
			cfg.TasksPerCluster = 125
			cfg.ReplicateFactor = 100
			cfg.ResourcesPerCluster = 500
			cfg.MinSubtasks = 5
			cfg.MaxSubtasks = 5
			cfg.ChainOnly = true
			cfg.SlackFactor = 400
			cfg.CrossFraction = 0.002
			var converged, rounds, subtasks float64
			for i := 0; i < b.N; i++ {
				w, err := workload.Clustered(cfg)
				if err != nil {
					b.Fatal(err)
				}
				f, err := fleet.New(w, fleet.Config{Shards: 16, Seed: 1, ShardWorkers: shardWorkers})
				if err != nil {
					b.Fatal(err)
				}
				res, err := f.Run()
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
				converged = 0
				if res.Converged {
					converged = 1
				}
				rounds = float64(res.Rounds)
				subtasks = float64(w.TotalSubtasks())
			}
			b.ReportMetric(converged, "converged")
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(subtasks, "subtasks")
			b.ReportMetric(float64(shardWorkers), "shard_workers")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
		}
	}
	b.Run("1m", bench1m(1))
	b.Run("1m-parallel", bench1m(16))
}

// fleetBuildWorkload is the 100 000-subtask instance of the fleet set-up
// benchmarks: the 1m workload's shape (five-subtask chains, 16 clusters) at
// a tenth of its replication.
func fleetBuildWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	cfg := workload.DefaultClusteredConfig(1)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor = 16, 125, 10
	cfg.ResourcesPerCluster, cfg.MinSubtasks, cfg.MaxSubtasks = 500, 5, 5
	cfg.ChainOnly, cfg.SlackFactor, cfg.CrossFraction = true, 400, 0.002
	w, err := workload.Clustered(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFleetBuild measures fleet.New alone — validate, partition, one
// compile per shard — on 100k subtasks. Every iteration builds over fresh
// tasks (cloned off the clock), because a compile caches a task's paths on
// the task. benchparse gates allocs/op against the previous report.
func BenchmarkFleetBuild(b *testing.B) {
	w := fleetBuildWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := w.Clone()
		b.StartTimer()
		f, err := fleet.New(fresh, fleet.Config{Shards: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkFleetReplace measures Fleet.ReplaceWorkload alone for a
// one-cluster delta — 50 tasks' critical times tightened — on a certified
// 100k-subtask fleet: what a churn event pays before it can re-run. The
// edited clone is prepared off the clock. benchparse gates allocs/op.
func BenchmarkFleetReplace(b *testing.B) {
	cur := fleetBuildWorkload(b)
	f, err := fleet.New(cur, fleet.Config{Shards: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if res, err := f.Run(); err != nil || !res.Converged {
		b.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next := cur.Clone()
		for _, t := range next.Tasks[(i%16)*1250:][:50] {
			t.CriticalMs *= 0.99
		}
		b.StartTimer()
		st, err := f.ReplaceWorkload(next)
		if err != nil || st.Full {
			b.Fatalf("ReplaceWorkload: %+v, err %v", st, err)
		}
		cur = next
	}
}

// BenchmarkDistributedRounds measures 100 distributed rounds of the base
// workload, set-up included: over the in-process transport, and over TCP
// loopback with the deployment's dictionary codec, as lla-node -demo runs.
func BenchmarkDistributedRounds(b *testing.B) {
	w := workload.Base()
	nets := map[string]func() transport.Network{
		"inproc": func() transport.Network { return transport.NewInproc(transport.InprocConfig{}) },
		"tcp": func() transport.Network {
			registry := make(map[string]string)
			for _, addr := range dist.Addresses(w) {
				registry[addr] = "127.0.0.1:0"
			}
			n := transport.NewTCP(registry)
			n.SetCodec(dist.WireCodec(w, nil))
			return n
		},
	}
	for _, name := range []string{"inproc", "tcp"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := lla.NewDistributed(w, core.Config{}, nets[name]())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(100); err != nil {
					b.Fatal(err)
				}
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures simulated milliseconds per wall second on the
// prototype workload under the quantum scheduler.
func BenchmarkSimulator(b *testing.B) {
	s, err := sim.New(workload.Prototype(), sim.Config{Scheduler: sim.Quantum, QuantumMs: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(100)
	}
}

// BenchmarkWireCodec measures the binary wire codec (PROTOCOL.md) on the
// frame the protocol optimizes for — one round's 64 price updates as a
// single batched frame with dictionary-compressed resource ids: encode plus
// decode per op. benchparse gates binary_bytes (the frame may not grow) and
// allocs/op against the committed report.
func BenchmarkWireCodec(b *testing.B) {
	const entries = 64
	resources := make([]string, entries)
	updates := make([]wire.PriceUpdate, entries)
	for i := range resources {
		resources[i] = fmt.Sprintf("resource-%02d", i)
		updates[i] = wire.PriceUpdate{
			Round:    1200 + i,
			Epoch:    3,
			Resource: resources[i],
			Mu:       0.125 + float64(i)/1024,
		}
	}
	msg := wire.Message{From: "coordinator", To: "ctl/task1", Kind: wire.KindPrice, Payload: updates}

	dict, err := wire.NewDict(resources, []string{"task1"}, [][]string{{}})
	if err != nil {
		b.Fatal(err)
	}
	codec := wire.NewCodec(dict)
	frame, err := codec.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}

	r := bufio.NewReader(bytes.NewReader(nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := codec.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		r.Reset(bytes.NewReader(enc))
		if _, err := codec.Read(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frame)), "binary_bytes")
}

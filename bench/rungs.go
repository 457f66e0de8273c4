package main

import (
	"time"

	"lla/internal/core"
	"lla/internal/fleet"
	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/utility"
	"lla/internal/workload"
)

// sink keeps the kernel loops' results alive so the compiler cannot drop
// the calls being timed.
var sink float64

// rungSpans opens the root of a standalone rung replay: the layer functions
// called once more, alone, on the workload's own inputs. Replay span names
// end in '*'.
func (r *run) rungSpans() (root int) {
	r.tr.enable(true, -2)
	return r.tr.begin("run", -1)
}

// runCoreRungs replays the core and kernel rungs of the ladder: Compile of
// the full workload, then NewEngine, cold and warm Step, KKTStats, Probe and
// SetAvailability on one engine-sized sub-workload (a shard's, or the whole
// workload where one engine solves it).
func runCoreRungs(r *run, full, part *workload.Workload, workers int) *core.Problem {
	root := r.rungSpans()
	defer func() { r.tr.end(root); r.tr.enable(false, -1) }()

	setup := r.tr.begin("setup", root)
	var p *core.Problem
	var err error
	mode := core.Config{}.WithDefaults().WeightMode
	var d time.Duration
	r.layer["core.compile_alloc_mb"] = allocMB(func() {
		d = r.tr.timed("core.compile*", setup, func(int) { p, err = core.Compile(full, mode) })
	})
	r.layer["core.compile_s"] = d.Seconds()
	if err != nil {
		r.countOp()
		r.fail("rung core.compile: %v", err)
		return nil
	}
	var e *core.Engine
	d = r.tr.timed("core.new_engine*", setup, func(int) { e, err = core.NewEngine(part, core.Config{Workers: workers}) })
	r.tr.end(setup)
	if err != nil {
		r.countOp()
		r.fail("rung core.new_engine: %v", err)
		return p
	}
	defer e.Close()
	r.layer["core.workers"] = float64(e.Workers())
	if _, ok := r.layer["core.new_engine_s"]; !ok {
		r.layer["core.new_engine_s"] = d.Seconds()
	}

	iter := r.tr.begin("iterate", root)
	defer r.tr.end(iter)
	const steps, passes = 20, 5
	n := float64(part.TotalSubtasks())
	perSubtask := func(d time.Duration, calls int) float64 { return float64(d) / float64(calls) / n }

	d = r.tr.timed("core.step_cold*", iter, func(int) {
		for i := 0; i < steps; i++ {
			e.Step()
		}
	})
	r.layer["core.step_cold_ns_per_subtask"] = perSubtask(d, steps)
	d = r.tr.timed("core.kktstats*", iter, func(int) {
		for i := 0; i < passes; i++ {
			k, _, _ := e.KKTStats()
			sink += k
		}
	})
	r.layer["core.kktstats_ns_per_subtask"] = perSubtask(d, passes)
	d = r.tr.timed("core.probe*", iter, func(int) {
		for i := 0; i < passes; i++ {
			sink += e.Probe().Utility
		}
	})
	r.layer["core.probe_ns_per_subtask"] = perSubtask(d, passes)

	r.tr.timed("core.run_until_kkt*", iter, func(int) {
		e.RunUntilKKT(onlineMaxIters, onlineKKTTol, onlineWindow, onlineTol)
	})
	e.ResetSparseStats()
	d = r.tr.timed("core.step_warm*", iter, func(int) {
		for i := 0; i < steps; i++ {
			e.Step()
		}
	})
	r.layer["core.step_warm_ns_per_subtask"] = perSubtask(d, steps)
	st := e.SparseStats()
	r.layer["core.sparse_skipped_pct"] = 100 * ratio(int(st.SkippedSolves), int(st.SkippedSolves+st.ExecutedSolves))

	res := part.Resources[0]
	d = r.tr.timed("core.set_availability*", iter, func(int) {
		for i := 0; i < steps; i++ {
			_ = e.SetAvailability(res.ID, res.Availability/2) // a resource of this workload: cannot fail
			_ = e.SetAvailability(res.ID, res.Availability)
		}
	})
	r.layer["core.set_availability_us"] = float64(d) / float64(time.Microsecond) / (2 * steps)

	runKernelRungs(r, iter)
	return p
}

// runFleetRungs replays the partitioner alone on the compiled full workload.
func runFleetRungs(r *run, p *core.Problem, fcfg fleet.Config) {
	if p == nil {
		return
	}
	root := r.rungSpans()
	setup := r.tr.begin("setup", root)
	d := r.tr.timed("fleet.partition*", setup, func(int) {
		inc := core.NewIncidence(p)
		if _, err := fleet.NewPartition(&inc, fleet.PartitionConfig{Shards: fcfg.Shards, Seed: fcfg.Seed}); err != nil {
			r.countOp()
			r.fail("rung fleet.partition: %v", err)
		}
	})
	r.tr.end(setup)
	r.tr.end(root)
	r.tr.enable(false, -1)
	r.layer["fleet.partition_s"] = d.Seconds()
}

// runKernelRungs times the innermost calls every workload's controllers and
// resources make: a Linear curve's value and slope, a WCET+lag share and its
// derivative, and one price-dynamics step per resource for the reference
// gradient solver and for diagonal Newton. They go through the interfaces,
// as the engine calls them.
func runKernelRungs(r *run, parent int) {
	const calls = 1_000_000
	var curve utility.Curve = utility.Linear{K: 2, CMs: 100}
	d := r.tr.timed("utility.eval*", parent, func(int) {
		for i := 0; i < calls; i++ {
			x := float64(i%97 + 1)
			sink += curve.Value(x) + curve.Slope(x)
		}
	})
	r.layer["utility.eval_ns"] = float64(d) / calls

	var fn share.Func = share.WCETLag{ExecMs: 3, LagMs: 1}
	d = r.tr.timed("share.eval*", parent, func(int) {
		for i := 0; i < calls; i++ {
			x := float64(i%97 + 5)
			sink += fn.Share(x) + fn.Deriv(x)
		}
	})
	r.layer["share.eval_ns"] = float64(d) / calls

	const resources, rounds = 8000, 100
	for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
		dyn := core.Config{PriceSolver: solver}.WithDefaults().NewDynamics()
		dyn.Reset(resources)
		in := price.StepInput{
			Mu:        make([]float64, resources),
			ShareSums: make([]float64, resources),
			Avail:     make([]float64, resources),
			Congested: make([]bool, resources),
			Curvature: make([]float64, resources),
		}
		for i := range in.Mu {
			in.Mu[i] = 1
			in.Avail[i] = 1
			in.ShareSums[i] = 0.9 + 0.2*float64(i%11)/10
			in.Congested[i] = in.ShareSums[i] > 1+core.CongestionMargin
			in.Curvature[i] = in.ShareSums[i] / 2
		}
		d = r.tr.timed("price.step*", parent, func(int) {
			for i := 0; i < rounds; i++ {
				dyn.Step(in)
			}
		})
		r.layer["price.step_ns_per_resource."+string(solver)] = float64(d) / (rounds * resources)
	}
}

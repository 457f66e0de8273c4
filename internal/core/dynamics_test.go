package core

import (
	"testing"

	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/workload"
)

// solverEngine builds an engine over the replicated base workload with the
// given solver and worker count.
func solverEngine(t *testing.T, s price.Solver, workers int) *Engine {
	t.Helper()
	w, err := workload.Replicate(workload.Base(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w, Config{Workers: workers, PriceSolver: s})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestSolverStepDoesNotAllocate extends the zero-allocation invariant to
// every price solver: once warm, the steady-state Step performs no heap
// allocation on the serial and the sharded engine, with and without an
// observer attached.
func TestSolverStepDoesNotAllocate(t *testing.T) {
	for _, s := range price.Solvers() {
		for _, workers := range []int{1, 4} {
			e := solverEngine(t, s, workers)
			for i := 0; i < 50; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(100, e.Step); allocs != 0 {
				t.Errorf("solver=%s workers=%d: Step allocates %v/op, want 0", s, workers, allocs)
			}
			// The observed path must hold the bound too: solver metrics are
			// resolved once at attach time and published by delta.
			o := &obs.Observer{Recorder: obs.NewRing(8), Metrics: obs.NewRegistry()}
			e.Observe(o)
			for i := 0; i < 50; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(100, e.Step); allocs != 0 {
				t.Errorf("solver=%s workers=%d: observed Step allocates %v/op, want 0", s, workers, allocs)
			}
		}
	}
}

// TestSolverParallelMatchesSerial extends the engine's central invariant to
// every price solver: the accelerated resource phase runs after the shard
// join on the serially reduced share sums (and a curvature vector summed in
// compiled subtask order), so the trajectory is bitwise worker-count
// independent for each solver.
func TestSolverParallelMatchesSerial(t *testing.T) {
	for _, s := range price.Solvers() {
		t.Run(string(s), func(t *testing.T) {
			serial := solverEngine(t, s, 1)
			par := solverEngine(t, s, 4)
			if par.Workers() < 2 {
				t.Fatalf("parallel engine resolved to %d shards, want >= 2", par.Workers())
			}
			for i := 0; i < 200; i++ {
				serial.Step()
				par.Step()
				requireBitwiseEqual(t, i, serial, par)
			}
		})
	}
}

// TestGradientSolverKeepsAgentPath pins the compatibility contract: selecting
// the gradient solver explicitly must not install a Dynamics — the agents'
// built-in UpdatePrice path stays in charge — and the trajectory is bitwise
// identical to the default configuration.
func TestGradientSolverKeepsAgentPath(t *testing.T) {
	def, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	grad, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer grad.Close()
	if def.dyn != nil || grad.dyn != nil {
		t.Fatalf("gradient configurations must not install a Dynamics (default %v, explicit %v)",
			def.dyn, grad.dyn)
	}
	if grad.PriceSolver() != price.SolverGradient {
		t.Fatalf("PriceSolver() = %q, want gradient", grad.PriceSolver())
	}
	for i := 0; i < 300; i++ {
		def.Step()
		grad.Step()
		requireBitwiseEqual(t, i, def, grad)
	}
}

// TestGradientDynamicsMatchesAgentPath proves the two gradient
// implementations are interchangeable: an engine whose resource phase is
// forced through a GradientProjection Dynamics reproduces the agents'
// built-in path bit for bit, across runtime mutations. This is the anchor
// for "fall back to gradient means the reference behavior" — the safeguard
// path of every accelerated solver runs this exact arithmetic.
func TestGradientDynamicsMatchesAgentPath(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	forced, err := NewEngine(workload.Base(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer forced.Close()
	// Install the reference dynamics by hand, exactly as NewEngine does for
	// accelerated solvers. The engines are fresh, so the Dynamics' new step
	// sizers agree with the agents' sizers.
	forced.dyn = forced.cfg.NewDynamics()
	forced.dyn.Reset(len(forced.p.Resources))
	forced.dynAvail = make([]float64, len(forced.p.Resources))
	forced.dynCurv = make([]float64, len(forced.p.Resources))
	if forced.dyn.Solver() != price.SolverGradient {
		t.Fatalf("config built a %q dynamics, want gradient", forced.dyn.Solver())
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			ref.Step()
			forced.Step()
			requireBitwiseEqual(t, round*50+i, ref, forced)
		}
		// Out-of-band changes go through the same invalidation on both paths.
		if err := ref.SetAvailability("r0", 0.7+0.05*float64(round)); err != nil {
			t.Fatal(err)
		}
		if err := forced.SetAvailability("r0", 0.7+0.05*float64(round)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunUntilKKT exercises the stationarity-certified stopping rule: it
// converges on the base workload to a point whose worst Equation 7 residual
// is below the tolerance, degenerate arguments refuse cleanly, and the
// accelerated Newton solver reaches the certificate in a fraction of the
// gradient's rounds.
func TestRunUntilKKT(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, ok := e.RunUntilKKT(3000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("gradient did not reach the KKT certificate in 3000 rounds (iter %d)", snap.Iteration)
	}
	if max, _, n := e.KKTStats(); n == 0 || max >= 1e-9 {
		t.Fatalf("certified point has KKT max %v over %d interior subtasks, want < 1e-9", max, n)
	}
	if snap.MaxResourceViolation >= 1e-6 || snap.MaxPathViolationFrac >= 1e-6 {
		t.Fatalf("certified point violates constraints: resource %v path %v",
			snap.MaxResourceViolation, snap.MaxPathViolationFrac)
	}

	if _, ok := e.RunUntilKKT(0, 1e-9, 3, 1e-6); ok {
		t.Error("maxIters=0 must report not converged")
	}
	if _, ok := e.RunUntilKKT(100, 1e-9, 0, 1e-6); ok {
		t.Error("window=0 must report not converged")
	}

	// The speedup claim is measured on the replicated workload the rounds
	// benchmark uses (BenchmarkRoundsToConverge): newton must certify in at
	// most half the gradient's rounds there.
	mk := func(s price.Solver) *Engine {
		w, err := workload.Replicate(workload.Base(), 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		re, err := NewEngine(w, Config{Workers: 1, PriceSolver: s})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(re.Close)
		return re
	}
	gsnap, ok := mk(price.SolverGradient).RunUntilKKT(4000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("gradient did not reach the KKT certificate on the replicated workload")
	}
	nsnap, ok := mk(price.SolverNewton).RunUntilKKT(4000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatal("newton did not reach the KKT certificate on the replicated workload")
	}
	if nsnap.Iteration*2 > gsnap.Iteration {
		t.Errorf("newton certified in %d rounds, gradient in %d — want at least 2x fewer",
			nsnap.Iteration, gsnap.Iteration)
	}
}

// TestResponseSlope pins the curvature formula the Newton dynamics consume:
// interior subtasks respond with share/(2mu), bound-active subtasks and free
// resources do not respond.
func TestResponseSlope(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := e.Problem()
	pt := &p.Tasks[0]
	lo, hi := pt.LatMinMs[0], pt.LatMaxMs[0]
	mid := (lo + hi) / 2

	want := p.Share(0, 0).Share(mid) / (2 * 1.5)
	if got := p.ResponseSlope(0, mid, 1.5); got != want {
		t.Errorf("interior slope = %v, want share/(2mu) = %v", got, want)
	}
	if got := p.ResponseSlope(0, mid, 0); got != 0 {
		t.Errorf("free resource (mu=0) must not respond, got %v", got)
	}
	if got := p.ResponseSlope(0, lo, 1); got != 0 {
		t.Errorf("lower-bound-active subtask must not respond, got %v", got)
	}
	if got := p.ResponseSlope(0, hi, 1); got != 0 {
		t.Errorf("upper-bound-active subtask must not respond, got %v", got)
	}
}

// TestSolverMetricsMatchEngine asserts the published lla_solver_* metrics
// agree with the engine's own accounting: rounds count the Steps taken while
// observed, and the fallback counter tracks SolverFallbacks exactly.
func TestSolverMetricsMatchEngine(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(&obs.Observer{Metrics: reg})
	e.Run(120, nil)

	// The registry returns the same handles for the same name and labels.
	sm := obs.NewSolverMetrics(reg, string(price.SolverNewton))
	if got := sm.Rounds.Value(); got != 120 {
		t.Errorf("lla_solver_rounds_total = %d, want 120", got)
	}
	if got, want := sm.Fallbacks.Value(), int64(e.SolverFallbacks()); got != want {
		t.Errorf("lla_solver_fallbacks_total = %d, engine SolverFallbacks = %d", got, want)
	}
	if e.SolverFallbacks() == 0 {
		t.Error("newton on the base workload should exercise the safeguard at least once")
	}
	if resid := sm.Residual.Value(); resid < 0 {
		t.Errorf("lla_solver_residual_max = %v, want >= 0", resid)
	}
}

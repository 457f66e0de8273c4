package core

import (
	"fmt"
	"math"
	"testing"

	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/task"
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

// agent is one resource's price agent as the paper's runtime holds it: its
// own step size, ramped by price.Ramp under the adaptive policy, clamped to
// the local stability bound (max(base, 2·mu/B), floored at mu/2 when
// adaptive) and applied through Equation 8. It shares no code with
// price.Dynamics beyond those two functions.
type agent struct {
	gamma float64
	step  StepPolicy
}

func (a *agent) update(mu, avail, sum float64, congested bool) float64 {
	if a.step.Adaptive {
		a.gamma = price.Ramp(a.gamma, a.step.Gamma, congested)
	}
	gamma := a.gamma
	if a.step.Adaptive && gamma < mu/2 {
		gamma = mu / 2
	}
	if cap := math.Max(a.step.Gamma, 2*mu/avail); gamma > cap {
		gamma = cap
	}
	return price.UpdateResource(mu, gamma, avail, sum)
}

// agentStep is the iteration as the paper's runtime performs it: every
// controller solves, then every resource agent steps its own price — no
// Dynamics, no skipping. It is the oracle the engine's gradient Dynamics is
// held to.
func agentStep(e *Engine, agents []agent) {
	e.mu = append(e.mu[:0], e.price...)
	for ti := range e.p.NumTasks() {
		c := e.Controller(ti)
		c.Solve(e.mu, e.congested)
	}
	for ri := range e.price {
		sum, _ := e.demand(ri)
		e.shareSums[ri] = sum
		r := &e.p.Resources[ri]
		cong := r.Congested(sum)
		e.price[ri] = agents[ri].update(e.price[ri], r.Availability, sum, cong)
		e.congested[ri] = cong
	}
	e.iter++
}

// newAgents builds the oracle's per-resource agents for e's config.
func newAgents(e *Engine) []agent {
	agents := make([]agent, len(e.price))
	for ri := range agents {
		agents[ri] = agent{gamma: e.cfg.Step.Gamma, step: e.cfg.Step}
	}
	return agents
}

// TestGradientSolverKeepsAgentPath pins the solver contract: the zero config
// selects Newton, and selecting the gradient by name reproduces the paper's
// per-agent gradient arithmetic bit for bit through the engine's one
// resource phase.
func TestGradientSolverKeepsAgentPath(t *testing.T) {
	def, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.PriceSolver() != price.SolverNewton || def.dyn.Solver() != price.SolverNewton {
		t.Fatalf("zero config runs %q, want newton", def.PriceSolver())
	}
	grad, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer grad.Close()
	oracle, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	agents := newAgents(oracle)
	for i := 0; i < 300; i++ {
		grad.Step()
		agentStep(oracle, agents)
		requireBitwiseEqual(t, i, oracle, grad)
	}
}

// TestGradientDynamicsMatchesAgentPath proves the gradient Dynamics is the
// agents' arithmetic on the sharded, sparse engine too, across runtime
// mutations. This is the anchor for "fall back to gradient means the
// reference behavior" — Newton's safeguard path runs this exact arithmetic.
func TestGradientDynamicsMatchesAgentPath(t *testing.T) {
	cfg := Config{Workers: 2, PriceSolver: price.SolverGradient}
	eng, err := NewEngine(workload.Base(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	oracle, err := NewEngine(workload.Base(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	agents := newAgents(oracle)
	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			eng.Step()
			agentStep(oracle, agents)
			requireBitwiseEqual(t, round*50+i, oracle, eng)
		}
		// Out-of-band changes: the agents' sizers survive them, and so must
		// the Dynamics'.
		for _, e := range []*Engine{eng, oracle} {
			if err := e.SetAvailability("r0", 0.7+0.05*float64(round)); err != nil {
				t.Fatal(err)
			}
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
// resources do not respond, and the engine folds the sum into its demand
// reduction.
func TestResponseSlope(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := Curvature(3, 1.5); got != 1 {
		t.Errorf("Curvature(3, 1.5) = %v, want share/(2mu) = 1", got)
	}
	if got := Curvature(3, 0); got != 0 {
		t.Errorf("free resource (mu=0) must not respond, got %v", got)
	}
	e.Run(5, nil)
	p := e.Problem()
	for ri := range p.Resources {
		inner, all := 0.0, 0.0
		for _, g := range p.Resources[ri].Subs {
			s := p.ShareAt(g, e.lat[g])
			all += s
			if p.Interior(g, e.lat[g]) {
				inner += s
			}
		}
		if got, want := e.CurvatureAt(ri), inner/(2*e.price[ri]); got != want {
			t.Errorf("resource %d: CurvatureAt = %v, want interior shares/(2mu) = %v", ri, got, want)
		}
		if e.ShareSumAt(ri) != all {
			t.Errorf("resource %d: ShareSumAt = %v, want %v", ri, e.ShareSumAt(ri), all)
		}
	}
	// Pinning every subtask to a bound leaves no response.
	copy(e.lat, p.latMin)
	e.refreshResourceState()
	for ri := range p.Resources {
		if got := e.CurvatureAt(ri); got != 0 {
			t.Errorf("resource %d: bound-active subtasks respond with %v, want 0", ri, got)
		}
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

// TestWeightModesCertifyUnderEverySolver is the regression for the period-2
// cycle diagonal Newton fell into on the paper's base workload under the
// weighted-sum utility (overload swinging 1.67 ↔ 0.60 on every resource, KKT
// stuck at 1.98) before its sign-flip safeguard: every weight mode must
// certify under both the gradient and Newton.
func TestWeightModesCertifyUnderEverySolver(t *testing.T) {
	for _, mode := range []task.WeightMode{task.WeightSum, task.WeightPathNormalized, task.WeightPathRaw} {
		for _, s := range []price.Solver{price.SolverGradient, price.SolverNewton} {
			e, err := NewEngine(workload.Base(), Config{Workers: 1, WeightMode: mode, PriceSolver: s})
			if err != nil {
				t.Fatal(err)
			}
			if snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6); !ok {
				kkt, _, _ := e.KKTStats()
				t.Errorf("mode %v, %s: no KKT certificate in %d iterations (KKT max %v)", mode, s, snap.Iteration, kkt)
			}
			e.Close()
		}
	}
}

// newtonSlower lists the generated instances of TestNewtonCertifiesWhereGradientDoes
// on which Newton needs more iterations than the gradient, with both counts
// (gradient, newton): findings to report, not bounds to loosen.
var newtonSlower = map[string][2]int{}

// TestNewtonCertifiesWhereGradientDoes sweeps seeded chain workloads
// (workload.Random) and clustered DAGs (workload.Clustered): wherever the
// gradient reaches the KKT certificate, Newton must reach it too. An instance
// where Newton is slower must be listed in newtonSlower with its counts.
func TestNewtonCertifiesWhereGradientDoes(t *testing.T) {
	type instance struct {
		name string
		w    *workload.Workload
	}
	var cases []instance
	// Contention, slack and curve family vary with the seed: more tasks per
	// resource couple the coordinates harder, and a slack near the task count
	// (about the contention) makes path prices bind.
	for seed := int64(1); seed <= 12; seed++ {
		rc := workload.DefaultRandomConfig(seed)
		rc.NumTasks, rc.NumResources = 3+int(seed%4)*2, 10
		slack := float64(rc.NumTasks) * []float64{1, 1.5, 2.5}[seed%3]
		rc.ChainOnly, rc.SlackFactor, rc.MixedCurves = true, slack, seed%2 == 0
		cw, err := workload.Random(rc)
		if err != nil {
			t.Fatal(err)
		}
		cc := workload.DefaultClusteredConfig(seed)
		cc.SlackFactor, cc.CrossFraction = slack*2, 0.1*float64(seed%4)
		dw, err := workload.Clustered(cc)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("chain-%d", seed), cw}, instance{fmt.Sprintf("clustered-%d", seed), dw})
	}
	iters := func(w *workload.Workload, s price.Solver) (int, bool) {
		e, err := NewEngine(w, Config{Workers: 1, PriceSolver: s})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		snap, ok := e.RunUntilKKT(4000, 1e-9, 3, 1e-6)
		return snap.Iteration, ok
	}
	certified := 0
	for _, c := range cases {
		g, gok := iters(c.w, price.SolverGradient)
		n, nok := iters(c.w, price.SolverNewton)
		if gok && !nok {
			t.Errorf("%s: gradient certifies in %d iterations, newton does not in %d", c.name, g, n)
		}
		if gok {
			certified++
		}
		want, listed := newtonSlower[c.name]
		if slower := nok && n > g; slower != listed || (listed && want != [2]int{g, n}) {
			t.Errorf("%s: gradient %d, newton %d iterations; newtonSlower lists %v (listed %v)", c.name, g, n, want, listed)
		}
	}
	if certified < 20 {
		t.Errorf("only %d of %d instances certify under the gradient: the sweep has gone vacuous", certified, len(cases))
	}
}

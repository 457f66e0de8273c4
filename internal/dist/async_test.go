package dist

import (
	"math"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The asynchronous suite runs in virtual time: d and pace are virtual
// durations and a run costs only its compute (RunAsync's wall-clock smoke is
// in sim_test.go).

// simAsync runs the asynchronous protocol on the virtual driver with the
// default fault policy.
func simAsync(t *testing.T, w *workload.Workload, cfg core.Config, chaos transport.ChaosConfig, d time.Duration) *Result {
	t.Helper()
	rt, err := NewSim(w, cfg, chaos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunAsync(d, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Asynchronous LLA converges close to the synchronous optimum on the base
// workload despite unsynchronized, stale updates.
func TestAsyncConvergesNearOptimum(t *testing.T) {
	res := simAsync(t, workload.Base(), core.Config{}, transport.ChaosConfig{}, 1500*time.Millisecond)
	// Synchronous optimum is 188.73 (Table 1 reproduction).
	if math.Abs(res.Utility-188.73) > 2 {
		t.Errorf("async utility = %.2f, want ≈188.73", res.Utility)
	}
	if res.ControllerSteps == 0 || res.ResourceSteps == 0 {
		t.Errorf("no compute steps: %+v", res)
	}
	// Latencies close to Table 1 (loose tolerance: the async endpoint depends
	// on message timing).
	ref := workload.Table1LatenciesMs()
	w := workload.Base()
	for ti, tk := range w.Tasks {
		for si, s := range tk.Subtasks {
			want := ref[tk.Name][s.Name]
			if rel := math.Abs(res.LatMs[ti][si]-want) / want; rel > 0.10 {
				t.Errorf("%s.%s async latency %.2f vs published %.1f (%.0f%% off)",
					tk.Name, s.Name, res.LatMs[ti][si], want, rel*100)
			}
		}
	}
}

// With message delay (stale prices), the asynchronous protocol still
// converges to the neighbourhood of the optimum — provided the steps are
// conservative. Aggressive price-proportional steps amplify stale gradients
// (the standard asynchronous-gradient staleness/step-size trade-off), so
// this case runs with a fixed moderate gamma.
func TestAsyncTolerantOfDelay(t *testing.T) {
	cfg := core.Config{Step: core.StepPolicy{Adaptive: false, Gamma: 2}}
	res := simAsync(t, workload.Base(), cfg, transport.ChaosConfig{DelayMs: 1, Seed: 5}, 4*time.Second)
	if math.Abs(res.Utility-188.73) > 5 {
		t.Errorf("async-with-delay utility = %.2f, want ≈188.73", res.Utility)
	}
}

func TestAsyncPrototypeMeetsConstraints(t *testing.T) {
	res := simAsync(t, workload.Prototype(), core.Config{}, transport.ChaosConfig{}, 1500*time.Millisecond)
	// Fast tasks settle at the 35ms per-subtask allocation (C=105 binding).
	for ti := 0; ti < 2; ti++ {
		sum := 0.0
		for _, lat := range res.LatMs[ti] {
			sum += lat
		}
		if math.Abs(sum-105) > 2 {
			t.Errorf("fast task %d path latency %.1f, want ≈105", ti, sum)
		}
	}
	// Resource prices near the analytic mu* = 667.
	for ri, mu := range res.Mu {
		if math.Abs(mu-667) > 30 {
			t.Errorf("mu[%d] = %.1f, want ≈667", ri, mu)
		}
	}
}

func TestAsyncRejectsInvalidWorkload(t *testing.T) {
	bad := workload.Base()
	bad.Resources = nil
	if _, err := NewSim(bad, core.Config{}, transport.ChaosConfig{}); err == nil {
		t.Fatal("invalid workload should fail")
	}
	rt, err := NewSim(workload.Base(), core.Config{}, transport.ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunAsync(0, 0); err == nil {
		t.Fatal("an asynchronous run needs a positive duration")
	}
}

// TestAsyncResolvesUnsetSolverToGradient: an asynchronous run of a config
// that names no solver steps its resources by the gradient, whose steps
// tolerate stale demand; a named solver — Newton included — is kept, and the
// lockstep modes keep the default Newton.
func TestAsyncResolvesUnsetSolverToGradient(t *testing.T) {
	solvers := func(rt *Runtime) map[price.Solver]int {
		out := map[price.Solver]int{}
		for _, n := range rt.resNodes {
			out[n.dyn.Solver()]++
		}
		return out
	}
	nr := len(workload.Base().Resources)
	for _, tc := range []struct {
		cfg         core.Config
		lockstep    price.Solver
		async       price.Solver
		description string
	}{
		{core.Config{}, price.SolverNewton, price.SolverGradient, "unset"},
		{core.Config{PriceSolver: price.SolverNewton}, price.SolverNewton, price.SolverNewton, "explicit newton"},
		{core.Config{PriceSolver: price.SolverGradient}, price.SolverGradient, price.SolverGradient, "explicit gradient"},
	} {
		rt, err := NewSim(workload.Base(), tc.cfg, transport.ChaosConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := solvers(rt); got[tc.lockstep] != nr {
			t.Errorf("%s: lockstep resources run %v, want %s", tc.description, got, tc.lockstep)
		}
		if _, err := rt.RunAsync(50*time.Millisecond, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got := solvers(rt); got[tc.async] != nr {
			t.Errorf("%s: async resources run %v, want %s", tc.description, got, tc.async)
		}
	}
}

package fleet

import (
	"fmt"
	"math"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// gradientAggregator swaps f's boundary dynamics for the aggregator the fleet
// had before it took Newton steps: the engines' reference gradient projection.
// It survives only here, as the oracle the Newton aggregator is held to; a
// full rebuild (ReplaceStats.Full) builds a new fleet and loses it.
func gradientAggregator(f *Fleet) {
	bcfg := f.cfg.Engine.WithDefaults()
	bcfg.PriceSolver = price.SolverGradient
	f.bdyn = bcfg.NewDynamics()
	f.bdyn.Reset(len(f.bid))
}

// denseCertify holds f's state to the fleet's tolerances by scans that trust
// no sweep and no cached report: every shard engine's complete certificate,
// and every boundary resource's demand summed over the engines holding it.
func denseCertify(t *testing.T, what string, f *Fleet) {
	t.Helper()
	inf := math.Inf(1)
	for _, s := range f.shards {
		c, _ := s.eng.Certify(inf, inf)
		if !(c.KKTMax < kktTol && c.MaxResourceViolation < tol && c.MaxPathViolationFrac < tol) {
			t.Errorf("%s: shard %d fails the dense certificate: %+v", what, s.id, c)
		}
	}
	for b, id := range f.bid {
		demand := 0.0
		for _, s := range f.shards {
			if lri := s.eng.ResourceIndex(id); lri >= 0 {
				demand += s.eng.ShareSumAt(lri)
			}
		}
		if over := (demand - f.bavail[b]) / f.bavail[b]; !(over < boundaryTol) {
			t.Errorf("%s: boundary resource %s overloaded by %v of its capacity", what, id, over)
		}
	}
}

// relDiff is the suites' relative utility deviation.
func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1) }

// TestFleetNewtonHeldToGradientOracle runs the Newton aggregator beside the
// gradient one on generated workloads — chains and DAGs, separable to heavily
// coupled, cut into 2, 4 and 7 shards (7 splits the four clusters, so even a
// separable workload gets a boundary), two seeds for each shape.
// Wherever the oracle certifies the fleet must too, in no more rounds, and
// both end states must pass the dense certificate and agree in utility. An
// instance that needs more rounds than the oracle is a finding to report with
// its seed, not a bound to loosen.
func TestFleetNewtonHeldToGradientOracle(t *testing.T) {
	coupled, newtonRounds, oracleRounds := 0, 0, 0
	seed := int64(100)
	for _, chain := range []bool{true, false} {
		for _, cross := range []float64{0, 0.05, 0.3} {
			for _, shards := range []int{2, 4, 7} {
				for range 2 {
					seed++
					what := fmt.Sprintf("seed %d chain=%v cross=%v shards=%d", seed, chain, cross, shards)
					wcfg := workload.DefaultClusteredConfig(seed)
					wcfg.ChainOnly, wcfg.CrossFraction = chain, cross
					w, err := workload.Clustered(wcfg)
					if err != nil {
						t.Fatalf("%s: Clustered: %v", what, err)
					}
					run := func(oracle bool) (*Fleet, Result) {
						f, err := New(w, Config{Shards: shards, Seed: seed, Engine: core.Config{Workers: 1}})
						if err != nil {
							t.Fatalf("%s: New: %v", what, err)
						}
						t.Cleanup(f.Close)
						if oracle {
							gradientAggregator(f)
						}
						res, err := f.Run()
						if err != nil {
							t.Fatalf("%s: Run (oracle=%v): %v", what, oracle, err)
						}
						return f, res
					}
					nf, n := run(false)
					gf, g := run(true)
					if g.BoundaryFallbacks != 0 {
						t.Fatalf("%s: the gradient oracle reported %d fallbacks", what, g.BoundaryFallbacks)
					}
					if !g.Converged {
						t.Logf("%s: the oracle did not certify in %d rounds (newton: %v in %d)", what, g.Rounds, n.Converged, n.Rounds)
					} else if !n.Converged || n.Rounds > g.Rounds {
						t.Errorf("%s: newton converged=%v in %d rounds (%d fallbacks), gradient oracle in %d",
							what, n.Converged, n.Rounds, n.BoundaryFallbacks, g.Rounds)
					}
					if n.Converged {
						denseCertify(t, what+" newton", nf)
					}
					if g.Converged {
						denseCertify(t, what+" oracle", gf)
					}
					if n.Converged && g.Converged {
						if d := relDiff(n.Utility, g.Utility); d > 1e-6 {
							t.Errorf("%s: newton utility %v, oracle %v (rel diff %v > 1e-6)", what, n.Utility, g.Utility, d)
						}
						if n.BoundaryCount > 0 {
							coupled++
							newtonRounds += n.Rounds
							oracleRounds += g.Rounds
						}
					}
				}
			}
		}
	}
	t.Logf("%d coupled instances: %d rounds with Newton, %d with the gradient oracle", coupled, newtonRounds, oracleRounds)
	if coupled < 18 {
		t.Errorf("only %d of 36 instances had a boundary and certified both ways; the table is close to vacuous", coupled)
	}
}

// TestFleetNewtonSafeguardCoordinates builds the coordinates on which the
// Newton model is degenerate and the embedded gradient step must take over —
// a boundary resource nobody is interior on, one whose price has been driven
// to zero — and the boundary-capacity change that cost the gradient aggregator
// the most rounds; each must re-certify, in fewer rounds than the oracle.
// Every fleet's boundary starts at core.InitialMu, not at New's relaxed seed:
// that low a price is where nobody is interior.
func TestFleetNewtonSafeguardCoordinates(t *testing.T) {
	w := clusteredWorkload(t, 23, 0.3)
	build := func(oracle bool) *Fleet {
		f, err := New(w, Config{Shards: 4, Seed: 1, Engine: core.Config{Workers: 1}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(f.Close)
		for b := range f.bmu {
			f.bmu[b] = core.InitialMu
			repin(t, f, b, core.InitialMu)
		}
		if oracle {
			gradientAggregator(f)
		}
		return f
	}
	certify := func(what string, f *Fleet) Result {
		res, err := f.Run()
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v after %d rounds, err=%v", what, res.Converged, res.Rounds, err)
		}
		denseCertify(t, what, f)
		return res
	}
	nf, gf := build(false), build(true)
	if len(nf.bid) == 0 {
		t.Fatal("no boundary resources; test is vacuous")
	}

	// Nobody interior: at the initial price every subtask of a boundary
	// resource sits on its lower latency bound, so the first report's
	// curvature is exactly zero and round 0 has no Newton step to take.
	probe := build(false)
	if _, err := probe.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	flat := uint64(0)
	for b := range probe.bid {
		if probe.bcurv[b] == 0 {
			flat++
			if probe.bmu[b] == probe.bprev[b] {
				t.Errorf("boundary %s: zero curvature and the safeguard did not move its price", probe.bid[b])
			}
		}
	}
	if flat == 0 {
		t.Fatal("no boundary resource reported zero curvature in round 0; case is vacuous")
	}
	if got := probe.bdyn.Fallbacks(); got != flat {
		t.Errorf("round 0 took %d fallbacks, want one per zero-curvature coordinate (%d)", got, flat)
	}
	cold, coldOracle := certify("cold", nf), certify("cold oracle", gf)
	if cold.BoundaryFallbacks < flat {
		t.Errorf("cold run reports %d fallbacks, round 0 alone needed %d", cold.BoundaryFallbacks, flat)
	}
	if cold.Rounds >= coldOracle.Rounds {
		t.Errorf("cold: newton took %d rounds, oracle %d", cold.Rounds, coldOracle.Rounds)
	}

	// A price driven to zero, on a certified fleet: Newton's log-space step
	// cannot leave zero, the safeguard must lift it.
	for _, f := range []*Fleet{nf, gf} {
		f.bmu[0] = 0
		repin(t, f, 0, 0)
	}
	lifted, liftedOracle := certify("zeroed price", nf), certify("zeroed price oracle", gf)
	if lifted.BoundaryFallbacks == 0 {
		t.Error("a zero boundary price re-certified without a fallback")
	}
	if nf.bmu[0] <= 0 {
		t.Errorf("boundary %s still priced %v", nf.bid[0], nf.bmu[0])
	}
	if lifted.Rounds >= liftedOracle.Rounds {
		t.Errorf("zeroed price: newton took %d rounds, oracle %d", lifted.Rounds, liftedOracle.Rounds)
	}
	if d := relDiff(lifted.Utility, cold.Utility); d > 1e-6 {
		t.Errorf("utility %v after the price was zeroed, %v before (rel diff %v)", lifted.Utility, cold.Utility, d)
	}

	// A boundary resource's capacity halved, then restored.
	scaled := func(k float64) *workload.Workload {
		w2 := w.Clone()
		for i := range w2.Resources {
			if w2.Resources[i].ID == nf.bid[0] {
				w2.Resources[i].Availability *= k
			}
		}
		return w2
	}
	rounds := func(what string, f *Fleet) (int, float64) {
		total := 0
		var res Result
		for _, k := range []float64{0.5, 1} {
			st, err := f.ReplaceWorkload(scaled(k))
			if err != nil || st.Full {
				t.Fatalf("%s: ReplaceWorkload: %+v, err %v; want an incremental rebuild", what, st, err)
			}
			res = certify(what, f)
			total += res.Rounds
		}
		return total, res.Utility
	}
	n, restored := rounds("capacity event", nf)
	g, _ := rounds("capacity event oracle", gf)
	if n >= g {
		t.Errorf("boundary capacity halved and restored: newton re-certified in %d rounds, oracle in %d", n, g)
	}
	if d := relDiff(restored, cold.Utility); d > 1e-6 {
		t.Errorf("utility %v after the capacity was restored, %v before (rel diff %v)", restored, cold.Utility, d)
	}
	t.Logf("rounds newton/oracle: cold %d/%d, zeroed price %d/%d, capacity halved+restored %d/%d",
		cold.Rounds, coldOracle.Rounds, lifted.Rounds, liftedOracle.Rounds, n, g)
}

// TestFleetPathBindingSecant certifies a cold fleet whose chains bind their
// critical times — fleet-1m-cold's shape (ReplicateFactor 100 at SlackFactor
// 400) on a fifth of its subtasks — twice: with updateBoundary's measured
// elasticity, and with the summed shard curvature every round (the history
// cleared before each update). Path prices meet their critical times inside
// each Solve, so round 1's slowest shard sweeps in at most 10 local
// iterations either way; the measured step, which reads the path prices'
// response the shard curvature leaves out, must save at least one round.
// Both end states pass the dense certificate and agree in utility.
func TestFleetPathBindingSecant(t *testing.T) {
	cfg := workload.DefaultClusteredConfig(3)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 16, 24, 100, 96
	cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 5, 5, true
	cfg.SlackFactor, cfg.CrossFraction = 400, 0.002
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	run := func(secant bool) (rounds, slowest int, utility float64) {
		f, err := New(w, Config{Shards: 16, Seed: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer f.Close()
		for converged := false; !converged; rounds++ {
			if rounds == 100 {
				t.Fatalf("secant=%v: not certified in %d rounds", secant, rounds)
			}
			if !secant {
				clear(f.bprev)
			}
			info, err := f.round()
			if err != nil {
				t.Fatalf("secant=%v: round %d: %v", secant, rounds, err)
			}
			for _, s := range f.shards {
				if rounds == 0 {
					slowest = max(slowest, s.iters)
				}
			}
			converged = info.converged
		}
		denseCertify(t, fmt.Sprintf("secant=%v", secant), f)
		for _, s := range f.shards {
			utility += s.probeUtility()
		}
		return rounds, slowest, utility
	}
	rounds, slowest, u := run(true)
	curvRounds, curvSlowest, curvU := run(false)
	t.Logf("rounds %d (curvature step %d), round 1's slowest shard %d local iterations", rounds, curvRounds, slowest)
	if slowest > 10 || curvSlowest > 10 {
		t.Errorf("round 1's slowest shard took %d local iterations (%d under the curvature step), want <= 10", slowest, curvSlowest)
	}
	if rounds >= curvRounds {
		t.Errorf("the secant certified in %d rounds, the curvature step in %d: want at least one fewer", rounds, curvRounds)
	}
	if d := relDiff(u, curvU); d > 1e-6 {
		t.Errorf("utility %v with the secant, %v without (rel diff %v)", u, curvU, d)
	}
}

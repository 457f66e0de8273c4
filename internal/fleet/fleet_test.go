package fleet

import (
	"math"
	"reflect"
	"testing"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/workload"
)

// clusteredWorkload builds the standard test topology.
func clusteredWorkload(t *testing.T, seed int64, cross float64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultClusteredConfig(seed)
	cfg.CrossFraction = cross
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	return w
}

// runToFrozen steps a sparse engine until one Step executes zero solves and
// reprices zero resources — the bitwise frozen fixed point.
func runToFrozen(t *testing.T, eng *core.Engine, maxIters int) {
	t.Helper()
	for i := 0; i < maxIters; i++ {
		before := eng.SparseStats()
		eng.Step()
		after := eng.SparseStats()
		if after.ExecutedSolves == before.ExecutedSolves &&
			after.RepricedResources == before.RepricedResources {
			return
		}
	}
	t.Fatalf("engine did not freeze within %d iterations", maxIters)
}

// TestFleetOverlapFreeBitwiseMatchesSingle is the headline equivalence: on
// a partition with no cross-shard resources, the fleet's frozen fixed point
// is bitwise identical to the single engine's — every latency and every
// price, bit for bit. The single engine starts from the fleet's relaxed
// seed, installed through the same core methods: with no resource shared, a
// resource's root sum is the one shard's holding it, bit for bit.
func TestFleetOverlapFreeBitwiseMatchesSingle(t *testing.T) {
	w := clusteredWorkload(t, 17, 0)
	ecfg := core.Config{Workers: 1, PriceSolver: price.SolverGradient}

	f, err := New(w, Config{Shards: 4, Seed: 1, Engine: ecfg, localFreeze: true, LocalIters: 5000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if got := len(f.Partition().Boundary); got != 0 {
		t.Fatalf("separable workload has %d boundary resources, want 0", got)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("fleet did not certify: %+v", res)
	}

	single, err := core.NewEngine(w, ecfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer single.Close()
	seedPrices([]*core.Engine{single}, [][]float64{single.PriceRoots()})
	runToFrozen(t, single, 20000)

	sp := single.Problem()
	// Prices, by resource ID.
	for s := 0; s < f.Shards(); s++ {
		eng := f.Engine(s)
		p := eng.Problem()
		for ri := range p.Resources {
			id := p.Resources[ri].ID
			sri := single.ResourceIndex(id)
			if sri < 0 {
				t.Fatalf("resource %s missing from single engine", id)
			}
			if got, want := eng.MuAt(ri), single.MuAt(sri); got != want {
				t.Errorf("resource %s price %v, single engine %v", id, got, want)
			}
		}
	}
	// Latencies, by task name.
	singleTask := sp.Workload().TaskIndex()
	for s := 0; s < f.Shards(); s++ {
		eng := f.Engine(s)
		for ti, tk := range eng.Problem().Workload().Tasks {
			sti, ok := singleTask[tk.Name]
			if !ok {
				t.Fatalf("task %s missing from single engine", tk.Name)
			}
			got := eng.Controller(ti).LatMs
			want := single.Controller(sti).LatMs
			if !reflect.DeepEqual(got, want) {
				t.Errorf("task %s latencies %v, single engine %v", tk.Name, got, want)
			}
		}
	}
	// And the aggregate utility follows.
	if got, want := res.Utility, single.Probe().Utility; got != want {
		t.Errorf("fleet utility %v, single engine %v", got, want)
	}
}

// TestFleetCoupledMatchesSingleWithinTol runs a genuinely coupled partition
// (cross-cluster edges force boundary resources) and gates the fleet's
// answer against the single engine's certified fixed point.
func TestFleetCoupledMatchesSingleWithinTol(t *testing.T) {
	w := clusteredWorkload(t, 23, 0.3)
	ecfg := core.Config{Workers: 1}

	f, err := New(w, Config{Shards: 4, Seed: 1, Engine: ecfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if len(f.Partition().Boundary) == 0 {
		t.Fatal("coupled workload produced no boundary resources; test is vacuous")
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("fleet did not certify: %+v", res)
	}
	if res.KKTMax >= 1e-6 {
		t.Errorf("certified KKT residual %v, want < 1e-6", res.KKTMax)
	}

	single, err := core.NewEngine(w, ecfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer single.Close()
	snap, ok := single.RunUntilKKT(20000, 1e-6, 3, 1e-6)
	if !ok {
		t.Fatal("single engine did not converge")
	}
	if rel := math.Abs(res.Utility-snap.Utility) / math.Abs(snap.Utility); rel > 1e-6 {
		t.Errorf("fleet utility %v vs single %v (rel diff %v > 1e-6)", res.Utility, snap.Utility, rel)
	}
}

// TestFleetDeterministicHashes certifies per-shard bitwise determinism:
// identical config and seed reproduce identical per-shard state hashes at
// every aggregator round.
func TestFleetDeterministicHashes(t *testing.T) {
	run := func() Result {
		w := clusteredWorkload(t, 31, 0.25)
		f, err := New(w, Config{Shards: 4, Seed: 5, Engine: core.Config{Workers: 1}, RecordHashes: true})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer f.Close()
		res, err := f.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Converged != b.Converged {
		t.Fatalf("runs diverged: %d/%v rounds vs %d/%v", a.Rounds, a.Converged, b.Rounds, b.Converged)
	}
	if !reflect.DeepEqual(a.ShardHashes, b.ShardHashes) {
		t.Fatal("per-shard state hashes differ between identical runs")
	}
	if len(a.ShardHashes) != a.Rounds {
		t.Fatalf("recorded %d hash rounds, want %d", len(a.ShardHashes), a.Rounds)
	}

}

// TestFleetObservability checks the lla_fleet_* metric set — the broadcast
// counter counts pins sent, not reports received — and the trace events:
// one fleet_round per executed round, one fleet_converged on certification,
// and the converged gauge set.
func TestFleetObservability(t *testing.T) {
	w := clusteredWorkload(t, 31, 0.25)
	reg := obs.NewRegistry()
	sink := obs.NewMemory()
	f, err := New(w, Config{Shards: 4, Seed: 5, Engine: core.Config{Workers: 1},
		Observer: &obs.Observer{Metrics: reg, Trace: sink}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	// A seeded boundary has a Newton step everywhere; a zero price has none
	// (the step is in log space), so the safeguard must take it.
	f.bmu[0] = 0
	repin(t, f, 0, 0)
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("fleet did not certify: %+v", res)
	}
	if got := len(sink.ByKind(obs.EventFleetRound)); got != res.Rounds {
		t.Errorf("%d fleet_round events, want %d", got, res.Rounds)
	}
	if got := len(sink.ByKind(obs.EventFleetConverged)); got != 1 {
		t.Errorf("%d fleet_converged events, want 1", got)
	}
	fm := obs.NewFleetMetrics(reg)
	if got := fm.Rounds.Value(); got != int64(res.Rounds) {
		t.Errorf("lla_fleet_rounds_total %d, want %d", got, res.Rounds)
	}
	if got := fm.LocalIters.Value(); got != int64(res.LocalIters) {
		t.Errorf("lla_fleet_local_iters_total %d, want %d", got, res.LocalIters)
	}
	if got := fm.BoundaryFallbacks.Value(); got != int64(res.BoundaryFallbacks) || got == 0 {
		t.Errorf("lla_fleet_boundary_fallbacks_total %d, Result says %d, and a zero price has no Newton step to take", got, res.BoundaryFallbacks)
	}
	if got := fm.Converged.Value(); got != 1 {
		t.Errorf("lla_fleet_converged %v, want 1", got)
	}
	if got := fm.BoundaryResources.Value(); got != float64(res.BoundaryCount) {
		t.Errorf("lla_fleet_boundary_resources %v, want %d", got, res.BoundaryCount)
	}
	// One pin per shard on the boundary for each round that ends in an
	// update — every round but the certifying one — and none for the demand
	// reports the shards send back.
	onBoundary := 0
	for _, s := range f.shards {
		if len(s.slot) > 0 {
			onBoundary++
		}
	}
	if got, want := fm.Broadcasts.Value(), int64((res.Rounds-1)*onBoundary); got != want || want == 0 {
		t.Errorf("lla_fleet_broadcasts_total %d, want %d pins: %d updates × %d shards on the boundary",
			got, want, res.Rounds-1, onBoundary)
	}
}

// TestFleetParallelWorkers runs the coupled fleet with the engines' default
// parallel controller phase: the worker count must not change the result
// (the engine is bitwise worker-count independent), and the run must be
// race-clean under -race.
func TestFleetParallelWorkers(t *testing.T) {
	w := clusteredWorkload(t, 31, 0.25)
	serial, err := New(w, Config{Shards: 3, Seed: 7, Engine: core.Config{Workers: 1}, RecordHashes: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer serial.Close()
	sres, err := serial.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	parallel, err := New(w, Config{Shards: 3, Seed: 7, Engine: core.Config{Workers: 4}, RecordHashes: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer parallel.Close()
	pres, err := parallel.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(sres.ShardHashes, pres.ShardHashes) {
		t.Fatal("worker count changed the fleet trajectory")
	}
}

// TestSweepCertificateMatchesDenseScans asserts that whichever way a sweep
// exits — the KKT window (keeping its last in-loop certificate), the
// iteration cap with a failed check, freeze mode, or the frozen break (which
// keeps the previous iteration's certificate when that one passed: the
// "long-window" case can exit no other way once it has converged) — the
// certificate it leaves is bitwise what dense scans of the shard's final
// state report, so the fleet's certification and Result.KKTMax read the
// same numbers as before the sweep's checks short-circuited.
func TestSweepCertificateMatchesDenseScans(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"window", Config{}},
		{"cap", Config{LocalIters: 3}},
		{"freeze", Config{Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}},
		// Swept by hand below with a window no sweep can reach.
		{"long-window", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards, cfg.Seed, cfg.Engine.Workers = 4, 1, 1
			f, err := New(clusteredWorkload(t, 23, 0.3), cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer f.Close()
			frozen, frozenLate := 0, 0
			for round := 0; round < 40; round++ {
				// Sweep by hand so the state is inspected before the round's
				// boundary update re-pins prices; the Round below then finds
				// each shard where this sweep left it and moves the pins on.
				for _, s := range f.shards {
					if tc.name == "long-window" {
						s.sweep(5000, false, kktTol, 1<<20, tol)
						s.sweptEpoch = s.eng.PinEpoch()
						s.refreshBoundary()
					} else {
						f.sweepShard(s)
					}
					// At rest is the window exit or the frozen break; in the
					// freeze and long-window cases it can only be the latter.
					if s.atRest {
						frozen++
						if s.iters > 1 {
							frozenLate++
						}
					}
					var want core.Certificate
					want.KKTMax, _, _ = s.eng.KKTStats()
					p := s.eng.Problem()
					for ri := range p.Resources {
						if s.eng.PinnedAt(ri) {
							continue
						}
						if over := s.eng.ShareSumAt(ri) - p.Resources[ri].Availability; over > want.MaxResourceViolation {
							want.MaxResourceViolation = over
						}
					}
					want.MaxPathViolationFrac = s.eng.Probe().MaxPathViolationFrac
					if s.cert != want {
						t.Fatalf("round %d shard %d (iters %d, at rest %v): sweep left %+v, dense scans %+v",
							round, s.id, s.iters, s.atRest, s.cert, want)
					}
				}
				if _, err := f.Round(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if frozen == 0 {
				t.Error("no sweep ended at rest")
			}
			if tc.name == "long-window" && frozenLate == 0 {
				t.Error("no sweep froze after an iteration of its own, so none kept a certificate")
			}
		})
	}
}

// TestFleetRefusesFreezeWithoutGradient: a frozen sweep is a bitwise no-op
// Step, which only the gradient's shards provably reach; under any other
// solver every sweep would silently burn LocalIters, so New refuses the
// combination — including the zero Engine config, which runs Newton.
func TestFleetRefusesFreezeWithoutGradient(t *testing.T) {
	w := clusteredWorkload(t, 17, 0)
	for _, s := range []price.Solver{"", price.SolverNewton} {
		if f, err := New(w, Config{Shards: 2, Engine: core.Config{PriceSolver: s}, localFreeze: true}); err == nil {
			f.Close()
			t.Errorf("solver %q: localFreeze accepted, want an error", s)
		}
	}
	f, err := New(w, Config{Shards: 2, Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true})
	if err != nil {
		t.Fatalf("gradient localFreeze refused: %v", err)
	}
	f.Close()
}

// TestFleetRefusesNegativeCaps: a negative round or sweep cap is an error
// from New, not a run that stops at once (MaxRounds) or sweeps nothing and
// diverges (LocalIters) without one.
func TestFleetRefusesNegativeCaps(t *testing.T) {
	w := clusteredWorkload(t, 17, 0)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"MaxRounds", Config{Shards: 4, MaxRounds: -1}},
		{"LocalIters", Config{Shards: 4, LocalIters: -1}},
		{"both", Config{Shards: 4, MaxRounds: -3, LocalIters: -2}},
	} {
		if f, err := New(w, tc.cfg); err == nil {
			f.Close()
			t.Errorf("%s: %+v accepted, want an error", tc.name, tc.cfg)
		}
	}
}

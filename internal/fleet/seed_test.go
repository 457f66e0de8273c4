package fleet

import (
	"fmt"
	"testing"

	"lla/internal/core"
	"lla/internal/workload"
)

// seedWorkload is one instance of the generated sweep the relaxed seed is
// held to: four clusters with linear curves.
func seedWorkload(t *testing.T, seed int64, chain bool, cross, slack float64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultClusteredConfig(seed)
	cfg.ChainOnly, cfg.CrossFraction, cfg.SlackFactor = chain, cross, slack
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	return w
}

// TestColdFleetSeed runs the generated sweep — chains and DAGs, separable to
// coupled, tight and loose critical times, two seeds — from New's relaxed
// seed: every instance certifies, in no more aggregator rounds than it took
// from unit prices (parentRounds, recorded before the seed), at the single
// engine's certified utility.
func TestColdFleetSeed(t *testing.T) {
	// parentRounds[seed][shape] lists the unit-price rounds of the cases in
	// loop order: cross 0, 0.05, 0.15, each at slack 20 then 400.
	parentRounds := map[int64]map[string][]int{
		31: {"chain": {2, 2, 5, 5, 7, 7}, "dag": {2, 2, 7, 7, 5, 5}},
		7:  {"chain": {2, 2, 5, 5, 7, 7}, "dag": {2, 2, 5, 5, 6, 6}},
	}
	for _, seed := range []int64{31, 7} {
		for _, shape := range []string{"chain", "dag"} {
			i := 0
			for _, cross := range []float64{0, 0.05, 0.15} {
				for _, slack := range []float64{20, 400} {
					limit := parentRounds[seed][shape][i]
					i++
					t.Run(fmt.Sprintf("seed%d/%s/cross%g/slack%g", seed, shape, cross, slack), func(t *testing.T) {
						w := seedWorkload(t, seed, shape == "chain", cross, slack)
						f, err := New(w, Config{Shards: 4, Seed: 1, Engine: core.Config{Workers: 1}})
						if err != nil {
							t.Fatalf("New: %v", err)
						}
						defer f.Close()
						res, err := f.Run()
						if err != nil || !res.Converged {
							t.Fatalf("Run: converged=%v after %d rounds, err=%v", res.Converged, res.Rounds, err)
						}
						t.Logf("%d rounds, %d local iterations", res.Rounds, res.LocalIters)
						if res.Rounds > limit {
							t.Errorf("certified in %d rounds, %d from unit prices", res.Rounds, limit)
						}
						single, err := core.NewEngine(w, core.Config{Workers: 1})
						if err != nil {
							t.Fatalf("NewEngine: %v", err)
						}
						defer single.Close()
						snap, ok := single.RunUntilKKT(20000, core.StopKKTTol, core.StopWindow, core.StopTol)
						if !ok {
							t.Fatal("single engine did not certify")
						}
						if d := relDiff(res.Utility, snap.Utility); d > 1e-6 {
							t.Errorf("fleet utility %v, single engine %v (rel diff %v)", res.Utility, snap.Utility, d)
						}
					})
				}
			}
		}
	}
}

// TestSeededShardCertifiesInFirstWindow: on an instance where no path
// constraint binds — chains with ample slack, no cross-cluster edges — the
// relaxed seed is every resource's optimal price, so each shard's first sweep
// certifies in its first window of Steps without moving a price.
func TestSeededShardCertifiesInFirstWindow(t *testing.T) {
	w := seedWorkload(t, 31, true, 0, 400)
	f, err := New(w, Config{Shards: 4, Seed: 1, Engine: core.Config{Workers: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	seeded := make([][]float64, f.Shards())
	for _, s := range f.shards {
		for ri := range s.eng.Problem().Resources {
			seeded[s.id] = append(seeded[s.id], s.eng.MuAt(ri))
		}
	}
	if _, err := f.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	for _, s := range f.shards {
		if !s.atRest || s.iters > window {
			t.Errorf("shard %d: at rest %v after %d Steps, want within the window of %d", s.id, s.atRest, s.iters, window)
		}
		p := s.eng.Problem()
		for ri, mu := range seeded[s.id] {
			if got := s.eng.MuAt(ri); got != mu {
				t.Errorf("shard %d resource %s: price moved from the seed %v to %v", s.id, p.Resources[ri].ID, mu, got)
			}
		}
		for ti, tk := range p.Workload().Tasks { // the instance's premise
			for _, l := range s.eng.Controller(ti).Lambda {
				if l != 0 {
					t.Fatalf("shard %d task %s: a path price rose to %v; the instance has no slack", s.id, tk.Name, l)
				}
			}
		}
	}
}

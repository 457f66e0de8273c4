package dist

import (
	"testing"

	"lla/internal/core"
	"lla/internal/fleet"
	"lla/internal/price"
	"lla/internal/transport"
	"lla/internal/workload"
)

// TestDistMatchesEngineAllSolvers locks in the coordinate-separability
// contract of the price dynamics (DESIGN.md §12): the synchronous engine
// drives one n-resource Dynamics while every distributed resource node
// drives its own 1-resource instance, and for each solver the two must
// produce bitwise-identical prices and latencies round for round — including
// the same safeguard-fallback count.
func TestDistMatchesEngineAllSolvers(t *testing.T) {
	const rounds = 150
	for _, s := range price.Solvers() {
		t.Run(string(s), func(t *testing.T) {
			cfg := core.Config{PriceSolver: s}
			e, err := core.NewEngine(workload.Base(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Run(rounds, nil)
			want := e.Snapshot()

			rt, err := New(workload.Base(), cfg, transport.NewInproc(transport.InprocConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			res, err := rt.Run(rounds)
			if err != nil {
				t.Fatal(err)
			}

			for ri := range want.Mu {
				if res.Mu[ri] != want.Mu[ri] {
					t.Errorf("mu[%d]: dist %x engine %x", ri, res.Mu[ri], want.Mu[ri])
				}
			}
			for ti := range want.LatMs {
				for si := range want.LatMs[ti] {
					if res.LatMs[ti][si] != want.LatMs[ti][si] {
						t.Errorf("lat[%d][%d]: dist %x engine %x",
							ti, si, res.LatMs[ti][si], want.LatMs[ti][si])
					}
				}
			}
			if res.Utility != want.Utility {
				t.Errorf("utility: dist %x engine %x", res.Utility, want.Utility)
			}
			if res.SolverFallbacks != e.SolverFallbacks() {
				t.Errorf("fallbacks: dist %d engine %d", res.SolverFallbacks, e.SolverFallbacks())
			}
		})
	}
}

// TestUnknownSolverIsAnError: a config naming a solver that does not exist —
// a typo, or a stale config naming one that was removed — is refused with an
// error by every runtime that builds price dynamics, never a panic.
func TestUnknownSolverIsAnError(t *testing.T) {
	for _, s := range []price.Solver{"bogus", "anderson"} {
		t.Run(string(s), func(t *testing.T) {
			cfg := core.Config{PriceSolver: s}
			builds := map[string]func() error{
				"engine": func() error {
					e, err := core.NewEngine(workload.Base(), cfg)
					if err == nil {
						e.Close()
					}
					return err
				},
				"dist": func() error {
					rt, err := NewSim(workload.Base(), cfg, transport.ChaosConfig{})
					if err == nil {
						rt.Close()
					}
					return err
				},
				"fleet": func() error {
					f, err := fleet.New(workload.Base(), fleet.Config{Shards: 2, Engine: cfg})
					if err == nil {
						f.Close()
					}
					return err
				},
			}
			for name, build := range builds {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: panicked: %v", name, r)
						}
					}()
					if err := build(); err == nil {
						t.Errorf("%s: accepted solver %q, want an error", name, s)
					}
				}()
			}
		})
	}
}

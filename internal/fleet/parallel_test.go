package fleet

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// TestFleetShardWorkersBitwiseInvariant is the parallel-rounds determinism
// property: at every shard concurrency — serial, partial, full, and
// over-provisioned — the fleet produces bitwise-identical per-round shard
// hashes, boundary residual series, and round counts, cold and after a
// ReplaceWorkload whose dirty shards are rebuilt and warm-started
// concurrently. Builds and sweeps touch disjoint shard state and the boundary
// reduction is serial in ascending shard order, so the schedule cannot reach
// the arithmetic.
func TestFleetShardWorkersBitwiseInvariant(t *testing.T) {
	const shards = 4
	for _, seed := range []int64{31, 47} {
		w := clusteredWorkload(t, seed, 0.25)
		var ref, refWarm Result
		var refCarried []uint64
		var refStats ReplaceStats
		for i, workers := range []int{1, 2, shards, shards + 3} {
			f, err := New(w, Config{Shards: shards, Seed: 5, ShardWorkers: workers, RecordHashes: true})
			if err != nil {
				t.Fatalf("seed %d workers %d: New: %v", seed, workers, err)
			}
			res, err := f.Run()
			if err != nil {
				f.Close()
				t.Fatalf("seed %d workers %d: Run: %v", seed, workers, err)
			}
			// Churn: tighten the first task of shards 0 and 1 by 10%.
			w2 := w.Clone()
			for s := 0; s < 2; s++ {
				w2.Tasks[f.Partition().ShardTasks[s][0]].CriticalMs *= 0.9
			}
			st, err := f.ReplaceWorkload(w2)
			if err != nil {
				f.Close()
				t.Fatalf("seed %d workers %d: ReplaceWorkload: %v", seed, workers, err)
			}
			carried := make([]uint64, f.Shards())
			for s, sr := range f.shards {
				carried[s] = sr.stateHash()
			}
			warm, err := f.Run()
			f.Close()
			if err != nil {
				t.Fatalf("seed %d workers %d: warm Run: %v", seed, workers, err)
			}
			if !res.Converged || !warm.Converged {
				t.Fatalf("seed %d workers %d: did not converge (%d, %d rounds)", seed, workers, res.Rounds, warm.Rounds)
			}
			if st.Full || st.Rebuilt < 2 {
				t.Fatalf("seed %d workers %d: replace %+v, want >= 2 shards rebuilt incrementally", seed, workers, st)
			}
			if i == 0 {
				ref, refWarm, refCarried, refStats = res, warm, carried, st
				continue
			}
			if st != refStats {
				t.Fatalf("seed %d workers %d: replace %+v, serial %+v", seed, workers, st, refStats)
			}
			if !reflect.DeepEqual(carried, refCarried) {
				t.Fatalf("seed %d workers %d: carried shard hashes diverged from serial", seed, workers)
			}
			for _, run := range []struct {
				name     string
				got, ref Result
			}{{"cold", res, ref}, {"warm", warm, refWarm}} {
				got, ref := run.got, run.ref
				if got.Rounds != ref.Rounds {
					t.Fatalf("seed %d workers %d %s: %d rounds, serial took %d", seed, workers, run.name, got.Rounds, ref.Rounds)
				}
				if !reflect.DeepEqual(got.ShardHashes, ref.ShardHashes) {
					t.Fatalf("seed %d workers %d %s: shard hashes diverged from serial", seed, workers, run.name)
				}
				if !reflect.DeepEqual(got.BoundaryResiduals, ref.BoundaryResiduals) {
					t.Fatalf("seed %d workers %d %s: boundary residual series diverged from serial", seed, workers, run.name)
				}
				if got.LocalIters != ref.LocalIters {
					t.Fatalf("seed %d workers %d %s: %d local iters, serial %d", seed, workers, run.name, got.LocalIters, ref.LocalIters)
				}
			}
		}
	}
}

// TestFleetBuildErrorNamesLowestShard: when every shard engine fails to build
// concurrently, New reports shard 0's error, whatever the schedule.
func TestFleetBuildErrorNamesLowestShard(t *testing.T) {
	w := clusteredWorkload(t, 31, 0.25)
	for run := 0; run < 20; run++ {
		_, err := New(w, Config{Shards: 4, ShardWorkers: 4, Engine: core.Config{PriceSolver: "bogus"}})
		if err == nil || !strings.Contains(err.Error(), "building shard 0:") {
			t.Fatalf("run %d: New gave %v, want shard 0's build error", run, err)
		}
	}
}

// restConfigs are the two rules a sweep can come to rest under: the default
// KKT window, and the bitwise frozen fixed point of localFreeze.
var restConfigs = []struct {
	name string
	cfg  Config
}{
	{"window", Config{}},
	{"freeze", Config{Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}},
}

// certifiedFleet builds cfg's 4-shard fleet over w and runs it to certification.
func certifiedFleet(t *testing.T, w *workload.Workload, cfg Config) *Fleet {
	t.Helper()
	cfg.Shards, cfg.Seed = 4, 1
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}
	if res.SweptShards == 0 {
		t.Fatal("run reported zero swept shards")
	}
	return f
}

// roundSweeps runs one round and fails unless it swept exactly the shards of
// want (ascending) and skipped every other.
func roundSweeps(t *testing.T, f *Fleet, what string, want []int) {
	t.Helper()
	if _, err := f.Round(); err != nil {
		t.Fatalf("%s: Round: %v", what, err)
	}
	var got []int
	for _, s := range f.shards {
		if !s.skip {
			got = append(got, s.id)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the round swept shards %v, want %v", what, got, want)
	}
}

// repin pins boundary resource b at mu in every shard holding it, behind the
// aggregator's back, and returns those shards (ascending).
func repin(t *testing.T, f *Fleet, b int, mu float64) []int {
	t.Helper()
	var holders []int
	for _, s := range f.shards {
		if j := slices.Index(s.slot, b); j >= 0 {
			holders = append(holders, s.id)
			if err := s.eng.PinPrice(s.localRi[j], mu, f.bcong[b]); err != nil {
				t.Fatalf("PinPrice: %v", err)
			}
		}
	}
	return holders
}

// recertify runs the fleet back to certification between wake-up cases.
func recertify(t *testing.T, f *Fleet, what string) {
	t.Helper()
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("%s: re-run: converged=%v err=%v", what, res.Converged, err)
	}
}

// TestFleetSkipsShardsAtRest: once Run certifies, every shard's last sweep
// ended on its own stopping rule under pins that have not moved since, so
// further rounds skip every sweep — and what a skipped shard contributes, its
// cached boundary report and certificate, is bitwise what re-scanning its
// untouched engine reports. Then each thing that can touch a shard — a moved
// pin, an unpin, a ReplaceWorkload that dirties it — wakes that shard and no
// other.
func TestFleetSkipsShardsAtRest(t *testing.T) {
	for _, tc := range restConfigs {
		t.Run(tc.name, func(t *testing.T) {
			w := clusteredWorkload(t, 17, 0.25)
			f := certifiedFleet(t, w, tc.cfg)
			before := f.Stats()
			if before.Swept+before.Skipped != before.Rounds*f.Shards() {
				t.Fatalf("stats don't tally: %+v over %d shards", before, f.Shards())
			}
			for i := 0; i < 3; i++ {
				conv, err := f.Round()
				if err != nil {
					t.Fatalf("Round: %v", err)
				}
				if !conv {
					t.Fatalf("round %d: certified fleet reported not converged", i)
				}
				for _, s := range f.shards {
					for j, lri := range s.localRi {
						demand, curv := s.eng.ShareSumAt(lri), s.eng.CurvatureAt(lri)
						if math.Float64bits(s.demand[j]) != math.Float64bits(demand) ||
							math.Float64bits(s.curv[j]) != math.Float64bits(curv) {
							t.Fatalf("round %d shard %d: cached report of %s is (%v, %v), the engine says (%v, %v)",
								i, s.id, f.bid[s.slot[j]], s.demand[j], s.curv[j], demand, curv)
						}
					}
					if want, _ := s.eng.Certify(math.Inf(1), math.Inf(1)); s.cert != want {
						t.Fatalf("round %d shard %d: cached certificate %+v, a dense scan says %+v", i, s.id, s.cert, want)
					}
				}
			}
			after := f.Stats()
			if got := after.Skipped - before.Skipped; got != 3*f.Shards() {
				t.Fatalf("steady-state rounds skipped %d sweeps, want %d", got, 3*f.Shards())
			}
			if after.Swept != before.Swept {
				t.Fatalf("steady-state rounds executed %d sweeps, want 0", after.Swept-before.Swept)
			}

			// A moved pin wakes the shards holding that boundary resource.
			if len(f.bid) == 0 {
				t.Fatal("no boundary resources; the wake-up cases are vacuous")
			}
			holders := repin(t, f, 0, f.bmu[0]*1.001)
			if len(holders) < 2 || len(holders) == f.Shards() {
				t.Fatalf("boundary resource %s is held by shards %v of %d; the case needs some, not all", f.bid[0], holders, f.Shards())
			}
			roundSweeps(t, f, "moved pin", holders)
			recertify(t, f, "moved pin")

			// An unpinned resource wakes its shard alone.
			one := f.shards[holders[0]]
			one.eng.UnpinPrice(one.localRi[0])
			roundSweeps(t, f, "unpin", holders[:1])
			recertify(t, f, "unpin")

			// A ReplaceWorkload wakes the shard it rebuilds; the others keep
			// their engines, their pins and their rest.
			w2 := w.Clone()
			w2.Tasks[0].CriticalMs *= 0.9
			st, err := f.ReplaceWorkload(w2)
			if err != nil || st.Full || st.Rebuilt != 1 {
				t.Fatalf("ReplaceWorkload: %+v, err %v; want one shard rebuilt", st, err)
			}
			roundSweeps(t, f, "replace", []int{f.Partition().TaskShard[0]})
			recertify(t, f, "replace")
		})
	}
}

// TestFleetCappedSweepIsNotAtRest: a sweep that ran into LocalIters did not
// end on its stopping rule, so its shard is swept again next round although
// nothing touched it (a separable workload has no pins to move); the first
// sweep that does end on the rule is the last. The cap is one Step: a seeded
// shard certifies within its first window of Steps, so a longer cap is
// never hit.
func TestFleetCappedSweepIsNotAtRest(t *testing.T) {
	const capIters = 1
	f, err := New(clusteredWorkload(t, 17, 0), Config{Shards: 4, Seed: 1, LocalIters: capIters})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if len(f.bid) != 0 {
		t.Fatalf("separable workload has %d boundary resources", len(f.bid))
	}
	capped := 0
	for round := 0; round < 200; round++ {
		rest := make([]bool, f.Shards())
		for i, s := range f.shards {
			rest[i] = s.atRest
		}
		done, err := f.Round()
		if err != nil {
			t.Fatalf("Round: %v", err)
		}
		for i, s := range f.shards {
			if s.skip != rest[i] {
				t.Fatalf("round %d shard %d: at rest %v before the round, skipped %v", round, i, rest[i], s.skip)
			}
			if !s.skip && !s.atRest {
				capped++
				if s.iters != capIters {
					t.Fatalf("round %d shard %d: sweep left the shard awake after %d of %d iterations", round, i, s.iters, capIters)
				}
			}
		}
		if done {
			if capped == 0 {
				t.Fatal("no sweep hit the cap; test is vacuous")
			}
			return
		}
	}
	t.Fatal("capped sweeps never certified")
}

// TestFleetSkippedRoundZeroAllocs: a steady-state round — every shard
// skipped, no hash recording, no observer — must allocate nothing: cached
// demand reports and persistent boundary buffers carry the whole round.
func TestFleetSkippedRoundZeroAllocs(t *testing.T) {
	for _, tc := range restConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ShardWorkers, cfg.Engine.Workers = 1, 1
			f := certifiedFleet(t, clusteredWorkload(t, 17, 0.25), cfg)
			before := f.Stats()
			var roundErr error
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := f.Round(); err != nil {
					roundErr = err
				}
			})
			if roundErr != nil {
				t.Fatalf("Round: %v", roundErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state round allocates %v times, want 0", allocs)
			}
			if st := f.Stats(); st.Swept != before.Swept || st.Skipped == before.Skipped {
				t.Fatalf("steady-state rounds swept %d shards and skipped %d", st.Swept-before.Swept, st.Skipped-before.Skipped)
			}
		})
	}
}

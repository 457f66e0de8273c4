package admit

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lla/internal/core"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// TestEnactedTrialMatchesReplay: an enacted change leaves the live engine
// bitwise where a controller that replays its trial leaves it, and logs the
// same decision. The reference runs inline on a twin engine: a scratch trial
// for a gated offer, then the warm-started swap (NewEngine, CarryFrom,
// overwrite) and a re-convergence on the twin itself. Covered: an accepted
// gated offer, an admit-all offer, an accepted placed offer, a departure and
// a rebalance, at one worker and at four.
func TestEnactedTrialMatchesReplay(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			live, twin := testCluster(t, workers), testCluster(t, workers)
			gated, all := New(live, Config{}), New(live, Config{AdmitAll: true})
			gated.UsePlacer(NewPlacer())
			run := func(e *core.Engine) int {
				snap, _ := e.RunUntilKKT(gated.cfg.TrialIters, core.StopKKTTol, core.StopWindow, core.StopTol)
				return snap.Iteration
			}
			// replay enacts w on the twin as the replaying controller did and
			// checks got against the decision it would have logged: want plus
			// the iteration counts and utility the replay measures.
			replay := func(w *workload.Workload, trial bool, got, want Decision) {
				t.Helper()
				if trial {
					scratch, err := core.NewEngine(w, twin.Config())
					if err != nil {
						t.Fatal(err)
					}
					scratch.CarryFrom(twin)
					want.TrialIters = run(scratch)
					scratch.Close()
				}
				next, err := core.NewEngine(w, twin.Config())
				if err != nil {
					t.Fatal(err)
				}
				next.CarryFrom(twin)
				twin.Close()
				*twin = *next
				want.ReconvergeIters = run(twin)
				want.Utility = twin.Probe().Utility
				if got != want {
					t.Fatalf("decision\n got %+v\nwant %+v", got, want)
				}
				requireSameState(t, want.Task, live, twin)
			}
			with := func(name string, curve utility.Curve) *workload.Workload {
				w := twin.CurrentWorkload()
				w.Tasks = append(w.Tasks, live.Problem().Workload().TaskByName(name).Clone())
				w.Curves[name] = curve
				return w
			}

			loose, curve := chainCandidate(t, "loose", 300, []float64{5, 4}, []string{"r0", "r1"})
			d, err := gated.Offer(loose, curve)
			if err != nil {
				t.Fatal(err)
			}
			replay(with("loose", curve), true, d, Decision{Event: 1, Task: "loose", Kind: KindArrival,
				Admitted: true, Stage: StageAdmit, Reason: "passed static, price and trial gates"})

			extra, curve := chainCandidate(t, "extra", 200, []float64{3, 3}, []string{"r1", "r2"})
			if d, err = all.Offer(extra, curve); err != nil {
				t.Fatal(err)
			}
			replay(with("extra", curve), false, d, Decision{Event: 1, Task: "extra", Kind: KindArrival,
				Admitted: true, Stage: StageAdmit, Reason: "admit-everything policy"})

			mover := placedCandidate(t, "mover", 1, [][]string{{"r0", "r1"}})
			if d, err = gated.OfferPlaced(mover); err != nil {
				t.Fatal(err)
			}
			replay(with("mover", mover.Curve), true, d, Decision{Event: 2, Task: "mover", Kind: KindArrival,
				Admitted: true, Stage: StageAdmit, Reason: "passed static, price and trial gates"})

			if d, err = gated.Remove("loose"); err != nil {
				t.Fatal(err)
			}
			w := twin.CurrentWorkload()
			w.Tasks = slices.DeleteFunc(w.Tasks, func(tk *task.Task) bool { return tk.Name == "loose" })
			delete(w.Curves, "loose")
			replay(w, false, d, Decision{Event: 3, Task: "loose", Kind: KindDeparture,
				Admitted: true, Stage: StageLeave, Reason: "departed"})

			// Starve the mover's resource until the skew trigger moves it.
			home := live.Problem().Workload().TaskByName("mover").Subtasks[0].Resource
			for _, e := range []*core.Engine{live, twin} {
				if err := e.SetAvailability(home, 0.25); err != nil {
					t.Fatal(err)
				}
				run(e)
			}
			moved := false
			for i := 0; i < 30 && !moved; i++ {
				if d, moved, err = gated.MaybeRebalance(); err != nil {
					t.Fatal(err)
				}
			}
			if !moved {
				t.Fatal("no rebalance despite sustained price skew")
			}
			w = twin.CurrentWorkload()
			for i, tk := range w.Tasks {
				if tk.Name == "mover" {
					w.Tasks[i] = live.Problem().Workload().TaskByName("mover").Clone()
				}
			}
			replay(w, false, d, Decision{Event: 4, Task: "mover", Kind: KindRebalance,
				Admitted: true, Stage: StagePlace, Reason: d.Reason})
		})
	}
}

// requireSameState fails unless a and b hold bitwise the same prices and
// latencies at the same iteration.
func requireSameState(t *testing.T, at string, a, b *core.Engine) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Iteration != sb.Iteration {
		t.Fatalf("after %s: iteration %d, replay %d", at, sa.Iteration, sb.Iteration)
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !same(sa.Mu, sb.Mu) {
		t.Fatalf("after %s: prices %v, replay %v", at, sa.Mu, sb.Mu)
	}
	if len(sa.LatMs) != len(sb.LatMs) {
		t.Fatalf("after %s: %d tasks, replay %d", at, len(sa.LatMs), len(sb.LatMs))
	}
	for ti := range sa.LatMs {
		if !same(sa.LatMs[ti], sb.LatMs[ti]) {
			t.Fatalf("after %s: task %d latencies %v, replay %v", at, ti, sa.LatMs[ti], sb.LatMs[ti])
		}
	}
}

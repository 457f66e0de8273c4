package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lla/internal/price"
	"lla/internal/workload"
)

// eventWorkload is a small clustered DAG whose resources each carry about a
// dozen subtasks at replicate 4, as engine-online's do. At replicate 2 some
// resources carry two, and a halving lifts their box floors to their
// latencies (TestCapacityEventLiftsToFloor).
func eventWorkload(t *testing.T, replicate int) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultClusteredConfig(5)
	cfg.ReplicateFactor, cfg.SlackFactor = replicate, 40
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// setAvailabilityUnpriced is SetAvailability without the event step: the
// change as the next Step alone would price it.
func setAvailabilityUnpriced(e *Engine, ri int, availability float64) {
	e.p.Resources[ri].Availability = availability
	tasks := e.inc.resTask[e.inc.resTaskOff[ri]:e.inc.resTaskOff[ri+1]]
	for k, g := range e.p.Resources[ri].Subs {
		e.p.refreshBounds(int(tasks[k]), g)
	}
	e.refreshResource(ri)
}

// TestCapacityEventPricedAtOnce: under Newton a capacity change is priced
// when it happens, so the first Step after an event already solves at the
// clearing price and the certificate's window of StopWindow iterations is
// all an event costs, where a twin that leaves the pricing to the next Step
// takes one iteration more. Each event restores the last event's resources
// and halves others, as engine-online's do, and a resource restored and
// halved again between Steps holds exactly the state of one halving. Under
// the gradient the engine steps bitwise with the unpriced twin. No price
// moves at the event before one has been solved at — in a new or a restored
// engine — nor a pinned one.
func TestCapacityEventPricedAtOnce(t *testing.T) {
	const events, perEvent = 12, 3
	stepped, err := NewEngine(eventWorkload(t, 4), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stepped.Step()
	if err := stepped.PinPrice(1, 7, false); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(eventWorkload(t, 4), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewEngine(eventWorkload(t, 4), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := readSection(restored, checkpointSection(t, stepped)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		e    *Engine
		ri   int
	}{{"a new engine", fresh, 0}, {"a restored engine", restored, 0}, {"a pinned price", stepped, 1}} {
		mu := c.e.MuAt(c.ri)
		if err := c.e.SetAvailability(c.e.p.Resources[c.ri].ID, 0.5); err != nil {
			t.Fatal(err)
		}
		if got := c.e.MuAt(c.ri); got != mu {
			t.Errorf("%s: the event moved the price %v to %v", c.what, mu, got)
		}
		c.e.Close()
	}

	for _, solver := range price.Solvers() {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s/workers=%d", solver, workers)
			mk := func() *Engine {
				e, err := NewEngine(eventWorkload(t, 4), Config{Workers: workers, PriceSolver: solver})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := e.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol); !ok {
					t.Fatalf("%s: no certificate before the events", name)
				}
				return e
			}
			e, unpriced, once := mk(), mk(), mk()
			rng := rand.New(rand.NewSource(1))
			nr := len(e.price)
			var halved []int
			for ev := range events {
				picks := make([]int, perEvent)
				for i := range picks {
					picks[i] = rng.Intn(nr)
				}
				if len(halved) > 0 {
					picks[0] = halved[0] // restored and halved again between Steps
				}
				for _, ri := range halved {
					if err := e.SetAvailability(e.p.Resources[ri].ID, 1); err != nil {
						t.Fatal(err)
					}
					setAvailabilityUnpriced(unpriced, ri, 1)
				}
				for _, ri := range picks {
					if err := e.SetAvailability(e.p.Resources[ri].ID, 0.5); err != nil {
						t.Fatal(err)
					}
					setAvailabilityUnpriced(unpriced, ri, 0.5)
				}
				// once takes each resource's final capacity in one call.
				final := map[int]float64{}
				for _, ri := range halved {
					final[ri] = 1
				}
				for _, ri := range picks {
					final[ri] = 0.5
				}
				for ri := range nr {
					if v, ok := final[ri]; ok {
						if err := once.SetAvailability(once.p.Resources[ri].ID, v); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !bytes.Equal(checkpointSection(t, e), checkpointSection(t, once)) {
					t.Fatalf("%s event %d: restoring and halving a resource between Steps differs from one halving", name, ev)
				}
				halved = picks

				at := fmt.Sprintf("%s event %d", name, ev)
				before, ubefore := e.Iteration(), unpriced.Iteration()
				_, ok := e.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol)
				_, uok := unpriced.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol)
				once.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol)
				its, uits := e.Iteration()-before, unpriced.Iteration()-ubefore
				if !ok || !uok {
					t.Fatalf("%s: no certificate (priced %v, unpriced %v)", at, ok, uok)
				}
				if solver == price.SolverGradient {
					requireEnginesBitwiseEqual(t, at, e, unpriced)
					continue
				}
				if its != StopWindow || uits != StopWindow+1 {
					t.Fatalf("%s: certified in %d iterations, unpriced in %d; want %d and %d", at, its, uits, StopWindow, StopWindow+1)
				}
			}
			for _, x := range []*Engine{e, unpriced, once} {
				x.Close()
			}
		}
	}
}

// TestCapacityEventLiftsToFloor: a halving that lifts a subtask's box floor
// to its cached latency flags it bound-active, yet the next solve prices it
// at the floor, where it still responds. The event step takes it so, and
// every event of a seeded halve-and-restore stream certifies within the
// certificate's window. Priced on the flagged demand, a resource whose
// subtasks were all lifted has no curvature and takes a gradient step, and
// such an event an iteration more.
func TestCapacityEventLiftsToFloor(t *testing.T) {
	const events, perEvent = 30, 3
	for _, seed := range []int64{1, 2, 3} {
		e, err := NewEngine(eventWorkload(t, 2), Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol); !ok {
			t.Fatalf("seed %d: no certificate before the events", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		var halved []int
		lifted := 0
		for ev := range events {
			picks := make([]int, perEvent)
			for i := range picks {
				picks[i] = rng.Intn(len(e.price))
			}
			for _, ri := range halved {
				if err := e.SetAvailability(e.p.Resources[ri].ID, 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, ri := range picks {
				if err := e.SetAvailability(e.p.Resources[ri].ID, 0.5); err != nil {
					t.Fatal(err)
				}
				for _, g := range e.p.Resources[ri].Subs {
					if e.lat[g] <= e.p.latMin[g]*(1+1e-6) {
						lifted++
					}
				}
			}
			halved = picks
			before := e.Iteration()
			if _, ok := e.RunUntilKKT(400, StopKKTTol, StopWindow, StopTol); !ok || e.Iteration()-before != StopWindow {
				t.Fatalf("seed %d event %d: certified=%v in %d iterations, want %d", seed, ev, ok, e.Iteration()-before, StopWindow)
			}
		}
		if lifted == 0 {
			t.Errorf("seed %d: no halving lifted a box floor to a latency; the test shows nothing", seed)
		}
		e.Close()
	}
}

// stepReplayingSettled is Step, serially, with every solve the settled rule
// marks replayed at once against the prices and flags it read, on a copy of
// the controller: the replay must report no move and leave every bit where
// the solve put it, which is what lets the next Step skip it. A curved task
// must never be marked. It returns how many solves were marked.
func stepReplayingSettled(t *testing.T, at string, e *Engine) (marked int) {
	t.Helper()
	e.mu = append(e.mu[:0], e.price...)
	for w := range e.nshards {
		e.runShard(w)
	}
	for ti, moved := range e.latChanged {
		if !moved || !e.ctlStable[ti] {
			continue // not a solve the settled rule marked
		}
		marked++
		if !e.p.consts[ti].constSlope {
			t.Fatalf("%s: task %d has a curved utility and was marked settled", at, ti)
		}
		c := e.Controller(ti)
		r := NewController(e.p, ti, e.cfg)
		copy(r.LatMs, c.LatMs)
		copy(r.Lambda, c.Lambda)
		copy(r.gamma, c.gamma)
		copy(r.shares, c.shares)
		if priceMoved, latMoved := r.Solve(e.mu, e.congested); priceMoved || latMoved {
			t.Fatalf("%s: task %d marked settled, but its replay moved (prices %v, latencies %v)", at, ti, priceMoved, latMoved)
		}
		requireBitsEqual(t, at+" replayed LatMs", r.LatMs, c.LatMs)
		requireBitsEqual(t, at+" replayed Lambda", r.Lambda, c.Lambda)
		requireBitsEqual(t, at+" replayed path step sizes", r.gamma, c.gamma)
		requireBitsEqual(t, at+" replayed shares", r.shares, c.shares)
	}
	e.resourcePhase()
	e.iter++
	return marked
}

// TestSettledSolveReplaysAsNoOp holds the settled rule to its claim under
// both solvers: every solve it marks, replayed, changes nothing. Linear
// random seeds 0–59 and a clustered DAG must mark some; on mixed-curve seeds
// it may mark only the linear tasks. Each instance runs to its certificate
// or 300 iterations.
func TestSettledSolveReplaysAsNoOp(t *testing.T) {
	random := func(seed int64, mixed bool, slack float64) *workload.Workload {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.MixedCurves = mixed
		if slack > 0 {
			cfg.SlackFactor = slack
		}
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	type instance struct {
		name   string
		w      *workload.Workload
		linear bool
	}
	var cases []instance
	for seed := range int64(60) {
		cases = append(cases, instance{fmt.Sprintf("linear seed %d", seed), random(seed, false, 0), true})
	}
	cases = append(cases, instance{"clustered DAG", eventWorkload(t, 4), true})
	for seed := range int64(5) {
		cases = append(cases, instance{fmt.Sprintf("mixed seed %d slack 10", seed), random(seed, true, 10), false})
	}
	for _, seed := range []int64{1, 5, 6, 16} {
		cases = append(cases, instance{fmt.Sprintf("mixed seed %d", seed), random(seed, true, 0), false})
	}
	for _, solver := range price.Solvers() {
		linearMarked := 0
		for _, tc := range cases {
			e, err := NewEngine(tc.w, Config{Workers: 3, PriceSolver: solver})
			if err != nil {
				t.Fatal(err)
			}
			marked := 0
			for it, passed := 0, 0; it < 300 && passed < StopWindow; it++ {
				marked += stepReplayingSettled(t, fmt.Sprintf("%s %s iteration %d", solver, tc.name, it), e)
				if _, ok := e.Certify(StopKKTTol, StopTol); ok {
					passed++
				} else {
					passed = 0
				}
			}
			if tc.linear {
				linearMarked += marked
			}
			e.Close()
		}
		if linearMarked == 0 {
			t.Errorf("%s: the settled rule marked no solve on the linear instances; the replay check tests nothing", solver)
		}
	}
}

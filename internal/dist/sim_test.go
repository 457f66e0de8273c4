package dist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The virtual driver's own suite: a run is a pure function of its seed, and
// a sweep of generated fault schedules all end on the engine's bits.

// window is one node's crash/restart window in virtual time.
type window struct {
	addr     string
	from, to time.Duration
}

// schedule is one generated fault schedule over one generated workload.
type schedule struct {
	cfg     workload.RandomConfig
	rounds  int
	chaos   transport.ChaosConfig
	windows []window
	plan    FailoverPlan
}

// genSchedule draws a schedule from its seed: loss up to 30 %, duplication,
// reordering, delay and jitter, up to two crash/restart windows on resource
// or controller nodes, and zero to four coordinator crashes with or without
// the zombie probe, over a chain (even seeds) or DAG workload.
func genSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	// Every coordinator crash needs rounds to be scheduled by (AfterEmit
	// counts emitted rounds, and under loss many rounds never fully report).
	s := schedule{cfg: workload.DefaultRandomConfig(seed), rounds: 24 + rng.Intn(16) + 10*int(seed%5)}
	s.cfg.NumTasks, s.cfg.NumResources = 2+rng.Intn(3), 3+rng.Intn(3)
	s.cfg.MinSubtasks, s.cfg.MaxSubtasks = 2, 3
	s.cfg.ChainOnly = seed%2 == 0
	s.chaos = transport.ChaosConfig{Seed: seed}
	if rng.Intn(4) > 0 { // a quarter of the schedules keep a clean network
		s.chaos.LossRate = 0.3 * rng.Float64()
		s.chaos.DupRate = 0.2 * rng.Float64()
		s.chaos.ReorderRate = 0.2 * rng.Float64()
		s.chaos.DelayMs = 0.3 * rng.Float64()
		s.chaos.DelayJitterMs = 0.5 * rng.Float64()
	}
	for i := rng.Intn(3); i > 0; i-- {
		addr := resourceAddr(fmt.Sprintf("r%d", rng.Intn(s.cfg.NumResources)))
		if rng.Intn(2) == 0 {
			addr = controllerAddr(fmt.Sprintf("task%d", 1+rng.Intn(s.cfg.NumTasks)))
		}
		from := time.Duration(rng.Intn(10_000)) * time.Microsecond
		s.windows = append(s.windows, window{addr, from, from + time.Duration(1_000+rng.Intn(14_000))*time.Microsecond})
	}
	for i := 0; i < int(seed%5); i++ {
		s.plan.Crashes = append(s.plan.Crashes, Crash{AfterEmit: i, DownFor: time.Duration(500+rng.Intn(2_500)) * time.Microsecond})
	}
	s.plan.ZombieProbe = (seed/5)%2 == 1
	return s
}

// sim deploys the schedule on a fresh virtual runtime.
func (s schedule) sim(t *testing.T, fp FaultPolicy) (*Runtime, *workload.Workload) {
	t.Helper()
	w, err := workload.Random(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewSim(w, core.Config{}, s.chaos)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultPolicy(fp)
	net := rt.Sim()
	for _, win := range s.windows {
		net.At(win.from, func() { net.Crash(win.addr) })
		net.At(win.to, func() { net.Restart(win.addr) })
	}
	return rt, w
}

// The fault-schedule sweep: 200 generated schedules, each ending bitwise on
// the serial engine's state after the same rounds with every scheduled
// coordinator crash executed.
func TestFaultScheduleSweep(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := genSchedule(seed)
		rt, w := s.sim(t, fastPolicy())
		res, err := rt.RunWithFailover(s.rounds, s.plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, err := core.NewEngine(w, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(s.rounds, nil)
		want := e.Snapshot()
		e.Close()
		if !reflect.DeepEqual(res.LatMs, want.LatMs) || !reflect.DeepEqual(res.Mu, want.Mu) {
			t.Errorf("seed %d: %d rounds under %+v end off the engine's bits", seed, s.rounds, s.chaos)
		}
		if res.CoordinatorRestarts != len(s.plan.Crashes) {
			t.Errorf("seed %d: %d of %d scheduled coordinator crashes executed", seed, res.CoordinatorRestarts, len(s.plan.Crashes))
		}
		if s.plan.ZombieProbe && res.Rejoins > 0 && res.FencedStale == 0 {
			t.Errorf("seed %d: zombie stops went to %d rejoined controllers and none was fenced", seed, res.Rejoins)
		}
	}
}

// reproRun is everything observable of one virtual run.
type reproRun struct {
	log    []byte
	digest [sha256.Size]byte
	res    *Result
}

// reproduce runs schedule seed's faults and crash plan under the given fault
// seed, logging every event.
func reproduce(t *testing.T, seed, faultSeed int64) reproRun {
	t.Helper()
	s := genSchedule(seed)
	s.chaos.Seed = faultSeed
	rt, _ := s.sim(t, fastPolicy())
	var log bytes.Buffer
	rt.Sim().Log = &log
	res, err := rt.RunWithFailover(s.rounds, s.plan)
	if err != nil {
		t.Fatal(err)
	}
	return reproRun{log.Bytes(), sha256.Sum256(log.Bytes()), res}
}

// A virtual run is a function of its seed: the event log (every delivery,
// timer and retransmission, in order, with its virtual time), the final
// state and the Result counters repeat exactly, whatever GOMAXPROCS is; a
// different seed gives a different run.
func TestVirtualRunReproducible(t *testing.T) {
	const seed = 38 // lossy, three coordinator crashes, zombie probe
	first := reproduce(t, seed, seed)
	if first.res.Retransmits == 0 || first.res.CoordinatorRestarts == 0 {
		t.Fatalf("seed %d exercises no retransmission or no failover: %+v", seed, first.res)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		again := reproduce(t, seed, seed)
		if again.digest != first.digest {
			t.Errorf("GOMAXPROCS %d: event log differs from the first run's (%d vs %d bytes)", procs, len(again.log), len(first.log))
		}
		if !reflect.DeepEqual(again.res, first.res) {
			t.Errorf("GOMAXPROCS %d: result differs:\n%+v\n%+v", procs, again.res, first.res)
		}
	}
	if reproduce(t, seed, seed+1).digest == first.digest {
		t.Error("a different fault seed replayed the identical event log")
	}
}

// A virtual run that cannot finish is an error at a virtual time, not a
// hang: with retransmission off, the first lost frame stalls the protocol.
func TestVirtualRunReportsStall(t *testing.T) {
	rt, err := NewSim(workload.Base(), core.Config{}, transport.ChaosConfig{Seed: 1, LossRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultPolicy(FaultPolicy{})
	if _, err := rt.Run(50); err == nil {
		t.Fatal("20% loss without retransmission completed 50 rounds")
	}
}

// RunUntilKKT stops on the engine's certificate. On the lossless virtual
// network the coordinator certifies at the iteration core.Engine's
// RunUntilKKT does at the core Stop constants. Under the chaos suite's loss,
// delay, duplication and reordering a lost report leaves its round unproven,
// so certification may come later, never earlier, and only at a point the
// engine's Certify passes too. Either way the nodes stop at the round the
// stop names — two past the certified one — in the engine's state after that
// many Steps, bit for bit. At 30 % loss (seeds 1, 3 and 6) the stop itself
// is lost on the way to some nodes, which must learn it from their peers.
func TestVirtualRunCertifiesAtEngineRound(t *testing.T) {
	const maxRounds = 5000
	lossy := transport.ChaosConfig{Seed: 42, LossRate: 0.10, DupRate: 0.10, DelayMs: 0.3, DelayJitterMs: 0.5, ReorderRate: 0.10}
	chaos := []transport.ChaosConfig{{Seed: 1}, lossy}
	for _, seed := range []int64{1, 3, 6} {
		heavy := lossy
		heavy.Seed, heavy.LossRate = seed, 0.3
		chaos = append(chaos, heavy)
	}
	for _, w := range []struct {
		name string
		gen  func() *workload.Workload
	}{{"base", workload.Base}, {"prototype", workload.Prototype}} {
		e, err := core.NewEngine(w.gen(), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(maxRounds, core.StopKKTTol, core.StopWindow, core.StopTol)
		e.Close()
		if !ok {
			t.Fatalf("%s: the engine did not certify in %d iterations", w.name, maxRounds)
		}
		for _, chaos := range chaos {
			at := fmt.Sprintf("%s, seed %d, loss %v", w.name, chaos.Seed, chaos.LossRate)
			rt := simRuntime(t, w.gen(), chaos)
			mem := &obs.Memory{}
			rt.Observe(&obs.Observer{Trace: mem})
			res, err := rt.RunUntilKKT(maxRounds)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			conv := mem.ByKind(obs.EventConverged)
			if !res.Converged || len(conv) != 1 {
				t.Fatalf("%s: converged %v with %d converged events", at, res.Converged, len(conv))
			}
			k := conv[0].Iteration
			switch {
			case chaos.LossRate == 0 && k != snap.Iteration:
				t.Errorf("%s: certified at round %d, the engine at iteration %d", at, k, snap.Iteration)
			case k < snap.Iteration:
				t.Errorf("%s: certified at round %d, before the engine's iteration %d", at, k, snap.Iteration)
			case chaos.LossRate == 0 && res.Rounds != k+2:
				t.Errorf("%s: %d rounds reported, want the %d up to the stop", at, res.Rounds, k+2)
			}
			ref, err := core.NewEngine(w.gen(), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(k, nil)
			if _, ok := ref.Certify(core.StopKKTTol, core.StopTol); !ok {
				t.Errorf("%s: the engine does not certify round %d", at, k)
			}
			ref.Close()
			assertMatchesEngineBitwise(t, w.gen(), res, k+2)
		}
	}
}

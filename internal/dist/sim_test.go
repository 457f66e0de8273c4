package dist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The virtual driver's own suite: a run is a pure function of its seed, a
// sweep of generated fault schedules all end on the engine's bits, and one
// wall-clock smoke keeps the real driver's asynchronous mode honest.

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
// coordinator crash executed; and the same schedule run asynchronously never
// lets a degraded (stale-price) step break a critical time.
func TestFaultScheduleSweep(t *testing.T) {
	var degraded int64
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

		// The lease is short against the crash windows, so they degrade.
		art, _ := s.sim(t, FaultPolicy{RetransmitAfter: time.Millisecond, RetransmitMax: 10 * time.Millisecond, LeaseAfter: 4 * time.Millisecond})
		ares, err := art.RunAsync(40*time.Millisecond, time.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: async: %v", seed, err)
		}
		if ares.MaxDegradedPathViolation > 1e-9 {
			t.Errorf("seed %d: a degraded async step broke a critical time by %v", seed, ares.MaxDegradedPathViolation)
		}
		degraded += ares.DegradedRounds
	}
	if degraded == 0 {
		t.Error("no schedule of the sweep produced a degraded async step: the clamp was never exercised")
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

// Wall-clock smoke of the real driver's asynchronous mode: 200 ms over the
// in-process network, nodes pacing and heartbeating on real timers.
func TestAsyncWallClockSmoke(t *testing.T) {
	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{QueueLen: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	start := time.Now()
	res, err := rt.RunAsync(200*time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > 2*time.Second {
		t.Errorf("a 200ms asynchronous run took %v", d)
	}
	if res.ControllerSteps < 10 || res.ResourceSteps < 10 {
		t.Errorf("too few compute steps in 200ms at a 1ms pace: %+v", res)
	}
	if math.IsNaN(res.Utility) || res.Utility <= 0 || res.DegradedRounds != 0 {
		t.Errorf("utility %v after %d degraded rounds on a healthy network", res.Utility, res.DegradedRounds)
	}
}

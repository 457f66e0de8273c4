package dist

import (
	"math"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/task"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The chaos suite proves the fault-tolerance layer end to end, in virtual
// time (NewSim): the round-synchronized Runtime recovers the serial engine's
// result bitwise under loss/delay/duplication/reordering and node
// crash/restart, and the asynchronous runtime converges to the optimum while
// never violating a critical-time constraint during degraded (stale-price)
// operation. A protocol hang is a stalled virtual run, reported as an error.

// fastPolicy shrinks the fault-tolerance timers below the production-shaped
// defaults, so recoveries are short against the run.
func fastPolicy() FaultPolicy {
	return FaultPolicy{
		RetransmitAfter: 2 * time.Millisecond,
		RetransmitMax:   40 * time.Millisecond,
		LeaseAfter:      20 * time.Millisecond,
	}
}

// simRuntime deploys w on the virtual driver with the fast policy.
func simRuntime(t *testing.T, w *workload.Workload, chaos transport.ChaosConfig) *Runtime {
	t.Helper()
	rt, err := NewSim(w, core.Config{}, chaos)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultPolicy(fastPolicy())
	return rt
}

// mustRun runs the synchronized protocol to completion.
func mustRun(t *testing.T, rt *Runtime, rounds int) *Result {
	t.Helper()
	res, err := rt.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesEngine checks bitwise recovery against the serial engine.
func assertMatchesEngine(t *testing.T, res *Result, rounds int) {
	t.Helper()
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rounds, nil)
	want := e.Snapshot()
	for ti := range want.LatMs {
		for si := range want.LatMs[ti] {
			if d := math.Abs(res.LatMs[ti][si] - want.LatMs[ti][si]); d > 1e-9 {
				t.Errorf("lat[%d][%d]: dist %v engine %v", ti, si, res.LatMs[ti][si], want.LatMs[ti][si])
			}
		}
	}
	for ri := range want.Mu {
		if d := math.Abs(res.Mu[ri] - want.Mu[ri]); d > 1e-9 {
			t.Errorf("mu[%d]: dist %v engine %v", ri, res.Mu[ri], want.Mu[ri])
		}
	}
	if d := math.Abs(res.Utility - want.Utility); d > 1e-6 {
		t.Errorf("utility: dist %v engine %v", res.Utility, want.Utility)
	}
}

// Seeded 10% loss plus delay, duplication, and reordering: retransmission
// and stale-message recovery must reproduce the engine exactly — far inside
// the 1%-of-serial-utility acceptance bound.
func TestChaosSyncLossDelayDupMatchesEngine(t *testing.T) {
	const rounds = 80
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{
		Seed:          42,
		LossRate:      0.10,
		DupRate:       0.10,
		DelayMs:       0.3,
		DelayJitterMs: 0.5,
		ReorderRate:   0.10,
	})
	res := mustRun(t, rt, rounds)
	assertMatchesEngine(t, res, rounds)
	if res.Retransmits == 0 {
		t.Error("10% loss over 80 rounds recovered without a single retransmit")
	}
	if st := rt.Sim().Stats(); st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("chaos injected no faults: %+v", st)
	}
}

// A resource node crashed at start and restarted mid-run: its traffic is
// blackholed in both directions, the protocol stalls for the affected tasks,
// and retransmission resynchronizes everything after the restart — again
// bitwise equal to the engine. The coordinator's lease tracking must notice
// the stalled controllers.
func TestChaosSyncResourceCrashRestartMatchesEngine(t *testing.T) {
	const rounds = 120
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 7})
	net := rt.Sim()
	net.Crash(resourceAddr("r0"))
	net.At(60*time.Millisecond, func() { net.Restart(resourceAddr("r0")) })

	res := mustRun(t, rt, rounds)
	assertMatchesEngine(t, res, rounds)
	if res.Retransmits == 0 {
		t.Error("crash recovery happened without retransmits")
	}
	if st := net.Stats(); st.Blackholed == 0 {
		t.Errorf("crash blackholed nothing: %+v", st)
	}
	if res.LeaseExpirations == 0 {
		t.Error("coordinator saw no lease expiration during a 60ms crash with a 20ms lease")
	}
}

// Shutdown stops a long run gracefully: node goroutines exit at their next
// event, Run returns without error, and the final state is flushed.
func TestRuntimeShutdownGraceful(t *testing.T) {
	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{QueueLen: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := rt.Run(10_000_000)
		done <- out{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	rt.Shutdown()
	rt.Shutdown() // idempotent

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("graceful shutdown returned error: %v", o.err)
		}
		if len(o.res.LatMs) != len(workload.Base().Tasks) {
			t.Errorf("shutdown did not flush final state: %+v", o.res)
		}
		if math.IsNaN(o.res.Utility) || o.res.Utility <= 0 {
			t.Errorf("shutdown utility = %v", o.res.Utility)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not stop the run")
	}
}

// serialOptimum is the converged serial engine's utility on the base workload.
func serialOptimum(t *testing.T) float64 {
	t.Helper()
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, ok := e.RunUntilKKT(20000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("serial engine did not converge: %v", snap)
	}
	return snap.Utility
}

// asyncPolicy is the heartbeat/lease policy of the asynchronous chaos cases.
func asyncPolicy() FaultPolicy {
	return FaultPolicy{
		RetransmitAfter: 3 * time.Millisecond,
		RetransmitMax:   30 * time.Millisecond,
		LeaseAfter:      25 * time.Millisecond,
	}
}

// Asynchronous runtime under seeded loss, duplication, small delay, and a
// resource-node crash/restart (pause/resume): sequence numbers reject
// duplicated/reordered-stale prices, leases detect the silent resource,
// degraded allocations stay deadline-safe, and after resync the run still
// converges within 1% of the serial engine's utility.
func TestChaosAsyncLossCrashRestartConverges(t *testing.T) {
	want := serialOptimum(t)
	rt, err := NewSim(workload.Base(), core.Config{}, transport.ChaosConfig{
		Seed:          11,
		LossRate:      0.10,
		DupRate:       0.10,
		DelayMs:       0.1,
		DelayJitterMs: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultPolicy(asyncPolicy())
	net := rt.Sim()
	net.At(700*time.Millisecond, func() { net.Crash(resourceAddr("r0")) })
	net.At(1200*time.Millisecond, func() { net.Restart(resourceAddr("r0")) })
	res, err := rt.RunAsync(3500*time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(res.Utility-want) / math.Abs(want); rel > 0.01 {
		t.Errorf("async utility %.3f vs serial %.3f (%.2f%% off, want ≤1%%)", res.Utility, want, rel*100)
	}
	if res.DegradedRounds == 0 {
		t.Error("a 500ms crash with a 25ms lease caused no degraded rounds")
	}
	if res.MaxDegradedPathViolation > 1e-9 {
		t.Errorf("degraded allocation violated a critical-time constraint: %v", res.MaxDegradedPathViolation)
	}
	if res.RejectedStale == 0 {
		t.Error("10% duplication passed sequence-number dedup untouched")
	}
	if res.Retransmits == 0 {
		t.Error("no heartbeat rebroadcasts despite a crashed peer")
	}

	// The final allocation must honor every path's critical time (1% slack
	// for in-flight asynchronous wobble).
	p, err := core.Compile(workload.Base(), task.WeightPathNormalized)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range p.Tasks {
		pt := &p.Tasks[ti]
		for pi := 0; pi < p.NumPaths(ti); pi++ {
			sum := 0.0
			for _, s := range p.Path(ti, pi) {
				sum += res.LatMs[ti][s]
			}
			if sum > pt.CriticalMs*1.01 {
				t.Errorf("task %s path %d: %.3fms exceeds critical time %.3fms", pt.Name, pi, sum, pt.CriticalMs)
			}
		}
	}
}

// Loss alone (no duplication or delay): the asynchronous heartbeat recovers
// dropped broadcasts and the run stays within 1% of the serial optimum.
func TestChaosAsyncLossOnlyBoundedGap(t *testing.T) {
	want := serialOptimum(t)
	rt, err := NewSim(workload.Base(), core.Config{}, transport.ChaosConfig{Seed: 3, LossRate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultPolicy(asyncPolicy())
	res, err := rt.RunAsync(2*time.Second, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Utility-want) / math.Abs(want); rel > 0.01 {
		t.Errorf("async utility %.3f vs serial %.3f (%.2f%% off, want ≤1%%)", res.Utility, want, rel*100)
	}
	if res.ControllerSteps == 0 || res.ResourceSteps == 0 {
		t.Errorf("no compute steps: %+v", res)
	}
	if st := rt.Sim().Stats(); st.Dropped == 0 {
		t.Errorf("chaos dropped nothing: %+v", st)
	}
}

package dist

import (
	"math"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The chaos suite proves the fault-tolerance layer end to end, in virtual
// time (NewSim): the round-synchronized Runtime recovers the serial engine's
// result bitwise under loss/delay/duplication/reordering and node
// crash/restart. A protocol hang is a stalled virtual run, reported as an
// error.

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

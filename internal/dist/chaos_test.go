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

// The chaos suite proves the fault-tolerance layer end to end: the
// round-synchronized Runtime recovers the serial engine's result bitwise
// under loss/delay/duplication/reordering and node crash/restart, and the
// asynchronous runtime converges to the optimum while never violating a
// critical-time constraint during degraded (stale-price) operation.

// fastPolicy shrinks the fault-tolerance timers so chaos tests recover in
// milliseconds instead of the production-shaped defaults.
func fastPolicy() FaultPolicy {
	return FaultPolicy{
		RetransmitAfter: 2 * time.Millisecond,
		RetransmitMax:   40 * time.Millisecond,
		LeaseAfter:      20 * time.Millisecond,
	}
}

// chaosNet wraps a roomy in-process network with the given fault injection.
func chaosNet(cfg transport.ChaosConfig) (*transport.Chaos, *transport.Inproc) {
	inner := transport.NewInproc(transport.InprocConfig{QueueLen: 16384})
	cfg.QueueLen = 16384
	return transport.NewChaos(inner, cfg), inner
}

// runWithDeadline guards chaos runs against protocol hangs.
func runWithDeadline(t *testing.T, rt *Runtime, rounds int) *Result {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := rt.Run(rounds)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(90 * time.Second):
		t.Fatal("chaos run did not complete")
		return nil
	}
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
	ch, _ := chaosNet(transport.ChaosConfig{
		Seed:          42,
		LossRate:      0.10,
		DupRate:       0.10,
		DelayMs:       0.3,
		DelayJitterMs: 0.5,
		ReorderRate:   0.10,
	})
	rt, err := New(workload.Base(), core.Config{}, ch)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.SetFaultPolicy(fastPolicy())

	res := runWithDeadline(t, rt, rounds)
	assertMatchesEngine(t, res, rounds)
	if res.Retransmits == 0 {
		t.Error("10% loss over 80 rounds recovered without a single retransmit")
	}
	st := ch.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("chaos injected no faults: %v", st)
	}
	ch.Wait()
}

// A resource node crashed at start and restarted mid-run: its traffic is
// blackholed in both directions, the protocol stalls for the affected tasks,
// and retransmission resynchronizes everything after the restart — again
// bitwise equal to the engine. The coordinator's lease tracking must notice
// the stalled controllers.
func TestChaosSyncResourceCrashRestartMatchesEngine(t *testing.T) {
	const rounds = 120
	ch, _ := chaosNet(transport.ChaosConfig{Seed: 7})
	rt, err := New(workload.Base(), core.Config{}, ch)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.SetFaultPolicy(fastPolicy())

	ch.Crash(resourceAddr("r0"))
	go func() {
		time.Sleep(60 * time.Millisecond)
		ch.Restart(resourceAddr("r0"))
	}()

	res := runWithDeadline(t, rt, rounds)
	assertMatchesEngine(t, res, rounds)
	if res.Retransmits == 0 {
		t.Error("crash recovery happened without retransmits")
	}
	if st := ch.Stats(); st.Blackholed == 0 {
		t.Errorf("crash blackholed nothing: %v", st)
	}
	if res.LeaseExpirations == 0 {
		t.Error("coordinator saw no lease expiration during a 60ms crash with a 20ms lease")
	}
	ch.Wait()
}

// Shutdown stops a long run gracefully: node goroutines exit at their next
// receive, Run returns without error, and the final state is flushed.
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

// Asynchronous runtime under seeded loss, duplication, small delay, and a
// resource-node crash/restart (pause/resume): sequence numbers reject
// duplicated/reordered-stale prices, leases detect the silent resource,
// degraded allocations stay deadline-safe, and after resync the run still
// converges within 1% of the serial engine's utility.
func TestChaosAsyncLossCrashRestartConverges(t *testing.T) {
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilConverged(20000, 1e-9, 30, 1e-3)
	if !ok {
		t.Fatalf("serial engine did not converge: %v", snap)
	}
	want := snap.Utility

	ch, _ := chaosNet(transport.ChaosConfig{
		Seed:          11,
		LossRate:      0.10,
		DupRate:       0.10,
		DelayMs:       0.1,
		DelayJitterMs: 0.2,
	})
	fp := FaultPolicy{
		RetransmitAfter: 3 * time.Millisecond,
		RetransmitMax:   30 * time.Millisecond,
		LeaseAfter:      25 * time.Millisecond,
	}
	go func() {
		time.Sleep(700 * time.Millisecond)
		ch.Crash(resourceAddr("r0"))
		time.Sleep(500 * time.Millisecond)
		ch.Restart(resourceAddr("r0"))
	}()
	res, err := RunAsyncWithPolicy(workload.Base(), core.Config{}, ch, 3500*time.Millisecond, time.Millisecond, fp)
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
	ch.Wait()
}

// Loss alone (no duplication or delay): the asynchronous heartbeat recovers
// dropped broadcasts and the run stays within 1% of the serial optimum.
func TestChaosAsyncLossOnlyBoundedGap(t *testing.T) {
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilConverged(20000, 1e-9, 30, 1e-3)
	if !ok {
		t.Fatalf("serial engine did not converge: %v", snap)
	}
	want := snap.Utility

	ch, _ := chaosNet(transport.ChaosConfig{Seed: 3, LossRate: 0.15})
	fp := FaultPolicy{
		RetransmitAfter: 3 * time.Millisecond,
		RetransmitMax:   30 * time.Millisecond,
		LeaseAfter:      25 * time.Millisecond,
	}
	res, err := RunAsyncWithPolicy(workload.Base(), core.Config{}, ch, 2*time.Second, time.Millisecond, fp)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Utility-want) / math.Abs(want); rel > 0.01 {
		t.Errorf("async utility %.3f vs serial %.3f (%.2f%% off, want ≤1%%)", res.Utility, want, rel*100)
	}
	if res.ControllerSteps == 0 || res.ResourceSteps == 0 {
		t.Errorf("no compute steps: %+v", res)
	}
	if st := ch.Stats(); st.Dropped == 0 {
		t.Errorf("chaos dropped nothing: %v", st)
	}
	ch.Wait()
}

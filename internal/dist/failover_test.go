package dist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	rec "lla/internal/recover"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The failover suite proves coordinator crash recovery end to end, in virtual
// time: node state and therefore the optimization result stay bitwise
// identical to the serial engine across coordinator generations, a restarted
// coordinator re-registers the live nodes via the rejoin handshake, and epoch
// fencing stops a zombie generation from split-braining the cluster. A crash
// plan's DownFor is a virtual duration, so a scheduled crash lands where the
// schedule says on every run.

// mustFailover runs the synchronized protocol through a crash plan.
func mustFailover(t *testing.T, rt *Runtime, rounds int, plan FailoverPlan) *Result {
	t.Helper()
	res, err := rt.RunWithFailover(rounds, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A clean network, two scheduled coordinator crashes: the optimization result
// must be bitwise the uninterrupted engine's, every controller must rejoin
// each new generation, and the epoch must count both restarts.
func TestFailoverCoordinatorCrashMatchesEngine(t *testing.T) {
	const rounds = 120
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 11})
	trace := &obs.Memory{}
	rt.Observe(&obs.Observer{Trace: trace})
	var restartEpochs []uint64
	plan := FailoverPlan{
		Crashes: []Crash{
			{AfterEmit: 5, DownFor: 2 * time.Millisecond},
			{AfterEmit: 15, DownFor: 2 * time.Millisecond},
		},
		OnRestart: func(e uint64) { restartEpochs = append(restartEpochs, e) },
	}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.CoordinatorRestarts != 2 || res.Epoch != 2 {
		t.Errorf("restarts=%d epoch=%d, want 2 and 2", res.CoordinatorRestarts, res.Epoch)
	}
	if len(restartEpochs) != 2 || restartEpochs[0] != 1 || restartEpochs[1] != 2 {
		t.Errorf("OnRestart epochs = %v, want [1 2]", restartEpochs)
	}
	nTasks := len(workload.Base().Tasks)
	if res.Rejoins < int64(nTasks) {
		t.Errorf("rejoins = %d, want at least one full handshake (%d controllers)", res.Rejoins, nTasks)
	}
	// Each generation announces itself once, stamped by the driver with the
	// coordinator's address, its new epoch and the round it was awaiting.
	bumps := trace.ByKind(obs.EventEpochBump)
	if len(bumps) != 2 {
		t.Fatalf("%d epoch_bump events, want 2", len(bumps))
	}
	for i, ev := range bumps {
		if ev.Node != coordinatorAddr || ev.Epoch != uint64(i+1) || ev.Round < plan.Crashes[i].AfterEmit {
			t.Errorf("epoch_bump %d stamped node=%q epoch=%d round=%d", i, ev.Node, ev.Epoch, ev.Round)
		}
	}
}

// The zombie probe: each restarted generation impersonates its dead
// predecessor with a stale-epoch stop (AfterRound 0). Fencing must discard
// and count every one — an unfenced node would halt instantly and the run
// would diverge from the engine.
func TestFailoverZombieCoordinatorFenced(t *testing.T) {
	const rounds = 100
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 3})
	plan := FailoverPlan{
		Crashes:     []Crash{{AfterEmit: 8, DownFor: 10 * time.Millisecond}},
		ZombieProbe: true,
	}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.CoordinatorRestarts != 1 {
		t.Errorf("restarts = %d, want 1", res.CoordinatorRestarts)
	}
	if nTasks := int64(len(workload.Base().Tasks)); res.FencedStale < nTasks {
		t.Errorf("fenced %d stale-epoch frames, want at least the %d zombie stops", res.FencedStale, nTasks)
	}
}

// Rejoin racing retransmitted pre-crash frames: loss, duplication, delay and
// reordering keep stale node-to-node frames in flight across the restart.
// Data frames are stamped but never fenced, so recovery stays bitwise exact.
// AfterEmit 0 crashes the coordinator at the very first report, maximizing
// the population of pre-crash frames that survive into the new generation.
func TestFailoverRejoinRacesRetransmits(t *testing.T) {
	const rounds = 80
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{
		Seed:          19,
		LossRate:      0.08,
		DupRate:       0.08,
		DelayMs:       0.2,
		DelayJitterMs: 0.4,
		ReorderRate:   0.08,
	})
	plan := FailoverPlan{Crashes: []Crash{{AfterEmit: 0, DownFor: 12 * time.Millisecond}}}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.CoordinatorRestarts != 1 {
		t.Errorf("restarts = %d, want 1", res.CoordinatorRestarts)
	}
}

// Report leases expiring exactly across a coordinator restart: the lease
// window is far shorter than the downtime, so every controller's lease would
// fire right as the coordinator dies. The restarted generation resets its
// lease clocks on rejoin and the run still recovers the engine bitwise.
func TestFailoverLeaseExpiresAtRestart(t *testing.T) {
	const rounds = 100
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 23})
	rt.SetFaultPolicy(FaultPolicy{
		RetransmitAfter: 2 * time.Millisecond,
		RetransmitMax:   40 * time.Millisecond,
		LeaseAfter:      5 * time.Millisecond,
	})
	plan := FailoverPlan{Crashes: []Crash{{AfterEmit: 5, DownFor: 30 * time.Millisecond}}}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.CoordinatorRestarts != 1 {
		t.Errorf("restarts = %d, want 1", res.CoordinatorRestarts)
	}
	if res.LeaseExpirations != 0 {
		t.Errorf("%d leases expired: a dead coordinator watches none, a restarted one starts them afresh", res.LeaseExpirations)
	}
}

// A restarted coordinator loads its epoch from the newest checkpoint: a
// directory seeded at generation 5 makes the first restart generation 6, and
// stops broadcast by the live generation still reach nodes that started at
// epoch 0 (fencing is strictly "below my own epoch").
func TestFailoverEpochLoadedFromCheckpoint(t *testing.T) {
	const rounds = 80
	dir := t.TempDir()
	eng, err := core.NewEngine(workload.Base(), core.Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.Step()
	}
	w, err := rec.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Save(rec.Capture(eng, rec.CaptureOptions{Epoch: 5})); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 31})
	plan := FailoverPlan{
		Crashes:       []Crash{{AfterEmit: 6, DownFor: 2 * time.Millisecond}},
		CheckpointDir: dir,
	}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.Epoch != 6 {
		t.Errorf("epoch = %d, want 6 (checkpointed 5 + one bump)", res.Epoch)
	}
}

// A checkpoint directory whose only generation is of a retired version fails
// the run with the version named, instead of seeding the epoch fence at 0.
func TestFailoverRefusesRetiredCheckpointDir(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "recover", "testdata", "ckpt_v3_newton.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000000000001.llackpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 31})
	if _, err := rt.RunWithFailover(80, FailoverPlan{CheckpointDir: dir}); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("run over a directory of retired checkpoints: %v; want an error naming version 3", err)
	}
}

// Double restart back to back: two epoch bumps, two full rejoin handshakes,
// still bitwise engine-equal — the recovery machinery composes with itself.
func TestFailoverDoubleRestartBitwise(t *testing.T) {
	const rounds = 140
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 47})
	plan := FailoverPlan{
		Crashes: []Crash{
			{AfterEmit: 4, DownFor: 8 * time.Millisecond},
			{AfterEmit: 5, DownFor: 8 * time.Millisecond},
		},
		ZombieProbe: true,
	}
	res := mustFailover(t, rt, rounds, plan)
	assertMatchesEngine(t, res, rounds)
	if res.Epoch != 2 || res.CoordinatorRestarts != 2 {
		t.Errorf("epoch=%d restarts=%d, want 2 and 2", res.Epoch, res.CoordinatorRestarts)
	}
	if res.FencedStale == 0 {
		t.Error("two zombie generations probed but nothing was fenced")
	}
}

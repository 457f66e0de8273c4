package eval

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/obs"
	rec "lla/internal/recover"
	"lla/internal/stats"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The soak experiment (DESIGN.md §13, EXPERIMENTS.md) is the chaos
// endurance run behind the crash-recovery subsystem: a long churn trace is
// driven through repeated checkpoint/crash/restore cycles of the engine and
// admission controller, then the distributed runtime is run under chaos with
// scheduled coordinator crashes, zombie-generation probes, and epoch
// recovery from the same checkpoint directory. It asserts the robustness
// acceptance bar end to end: zero critical-time violations across every
// recovery, bitwise state equality at each restore, warm recovery strictly
// cheaper than cold re-convergence, stale-generation frames fenced, and a
// flat allocation rate over the whole run.

// soakPlan is the budget set of one soak run.
type soakPlan struct {
	horizonMs       float64
	minEvents       int // full mode asserts the trace reaches this
	checkpointEvery int // events between periodic saves
	crashEveryCk    int // crash at every Nth periodic checkpoint
	distRounds      int
	distCrashes     []dist.Crash
}

// soakPlanFor sizes the run: the full soak drives ≥10^5 churn events, the
// quick one a few hundred (for tests and the CI smoke job).
func soakPlanFor(opts Options) soakPlan {
	p := soakPlan{
		horizonMs:       2_600_000,
		minEvents:       100_000,
		checkpointEvery: 2500,
		crashEveryCk:    4,
		distRounds:      400,
		distCrashes: []dist.Crash{
			{AfterEmit: 5, DownFor: 2 * time.Millisecond},
			{AfterEmit: 15, DownFor: 2 * time.Millisecond},
			{AfterEmit: 25, DownFor: 2 * time.Millisecond},
		},
	}
	if opts.Quick {
		p.horizonMs = 18_000
		p.minEvents = 500
		p.checkpointEvery = 100
		p.crashEveryCk = 2
		p.distRounds = 160
	}
	if opts.CheckpointEvery > 0 {
		p.checkpointEvery = opts.CheckpointEvery
	}
	return p
}

// soakState is the live engine/controller pair the replay drives; a crash
// cycle replaces both with instances rebuilt from the newest checkpoint.
type soakState struct {
	eng  *core.Engine
	ctrl *admit.Controller
}

// newSoakController attaches a gated admission controller to eng, with a
// trial budget small enough to keep a 10^5-event replay tractable.
func newSoakController(eng *core.Engine, o *obs.Observer) *admit.Controller {
	ctrl := admit.New(eng, admit.Config{TrialIters: 600})
	ctrl.UsePlacer(admit.NewPlacer())
	if o != nil {
		ctrl.Observe(o)
	}
	return ctrl
}

// Soak runs the crash/recovery endurance experiment. Phase 1 replays the
// churn trace against the live engine, checkpointing periodically and
// crash/restoring on schedule (alternating restore worker counts to exercise
// the bitwise contract across sharding). Phase 2 runs the distributed
// runtime under chaos with coordinator crashes, the zombie probe, and epoch
// recovery from the phase-1 checkpoint directory.
func Soak(opts Options) (*Result, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 7
	}
	plan := soakPlanFor(opts)
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Seed:               seed,
		MeanInterarrivalMs: 40,
		MeanLifetimeMs:     260,
		HorizonMs:          plan.horizonMs,
		Templates:          churnTemplates,
	})
	if err != nil {
		return nil, err
	}

	dir := opts.CheckpointDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "lla-soak-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	writer, err := rec.NewWriter(dir)
	if err != nil {
		return nil, err
	}
	// Carry the directory's coordinator generation forward: every save below
	// re-stamps the highest epoch seen so far, so pruning old checkpoints
	// never loses the monotone generation counter (recover.Latest is what a
	// restarted coordinator seeds its epoch from).
	var baseEpoch uint64
	if cp, _, err := rec.Latest(dir); err == nil {
		baseEpoch = cp.Epoch
	}
	var rm *obs.RecoverMetrics
	if opts.Observer != nil && opts.Observer.Metrics != nil {
		rm = obs.NewRecoverMetrics(opts.Observer.Metrics)
	}

	// Phase 1: engine-level churn with crash/restore cycles.
	eng, err := core.NewEngine(churnPool(), opts.engineConfig())
	if err != nil {
		return nil, err
	}
	opts.attach(eng)
	warmSnap, warmOK := eng.RunUntilKKT(3000, core.StopKKTTol, core.StopWindow, core.StopTol)
	coldRounds := -1
	if warmOK {
		coldRounds = warmSnap.Iteration
	}
	st := soakState{eng: eng, ctrl: newSoakController(eng, opts.Observer)}
	defer func() { st.eng.Close() }()

	save := func(converged bool) error {
		path, err := writer.Save(rec.Capture(st.eng, rec.CaptureOptions{
			Epoch:     baseEpoch,
			Seed:      seed,
			Converged: converged,
			Admit:     st.ctrl,
		}))
		if err != nil {
			return err
		}
		if rm != nil {
			rm.Checkpoints.Inc()
			rm.CheckpointBytes.Set(float64(writer.LastBytes()))
		}
		if opts.Observer != nil {
			opts.Observer.Emit(obs.Event{Kind: obs.EventCheckpoint,
				Iteration: st.eng.Probe().Iteration, Value: float64(writer.LastBytes()), Detail: path})
		}
		return nil
	}
	// On-converged checkpoint: the warm state every crash recovers toward.
	if err := save(warmOK); err != nil {
		return nil, err
	}

	const tol = 1e-3
	var (
		events, offered, admitted, rejected, departures int
		violations, restores, bitwiseMismatches         int
		warmRoundsMax                                   int
		warmRoundsSum                                   int
		warmFailures                                    int
	)
	utilSeries := stats.NewSeries("utility-soak")
	warmSeries := stats.NewSeries("warm-recovery-rounds")

	// Allocation-flatness probes: mallocs-per-event over an early and a late
	// window (the middle half boundaries keep warmup and drain effects out).
	var msLo, msMid1, msMid2, msHi runtime.MemStats
	q1, q2, q3 := len(trace)/10, len(trace)/2, len(trace)*9/10
	runtime.ReadMemStats(&msLo)

	crash := func() error {
		// WAL discipline: the crash point itself is durably checkpointed
		// (periodic saves already happened; this is the "on shutdown" save a
		// real deployment's signal handler performs).
		if err := save(false); err != nil {
			return err
		}
		cp, path, err := rec.Latest(dir)
		if err != nil {
			return err
		}
		// Alternate restore worker counts: the checkpoint contract is bitwise
		// identity under every sharding.
		workers := 1
		if restores%2 == 1 {
			workers = 4
		}
		restored, admitState, err := rec.Restore(cp, core.Config{Workers: workers})
		if err != nil {
			return err
		}
		if restored.Probe() != st.eng.Probe() {
			bitwiseMismatches++
		}
		if rm != nil {
			rm.Restores.Inc()
		}
		if opts.Observer != nil {
			opts.Observer.Emit(obs.Event{Kind: obs.EventRestore,
				Iteration: restored.Probe().Iteration, Detail: path})
		}
		// Warm recovery: rounds until the restored engine satisfies the same
		// convergence criterion the cold baseline was measured against.
		pre := restored.Probe().Iteration
		wSnap, wOK := restored.RunUntilKKT(3000, core.StopKKTTol, core.StopWindow, core.StopTol)
		warm := wSnap.Iteration - pre
		if !wOK {
			warmFailures++
		}
		warmRoundsSum += warm
		if warm > warmRoundsMax {
			warmRoundsMax = warm
		}
		warmSeries.Append(float64(events), float64(warm))
		if rm != nil {
			rm.RecoveryRounds.Observe(float64(warm))
		}
		// The crashed instance is gone: the restored engine and a controller
		// rebuilt from the checkpointed quarantine clocks take over.
		ctrl := newSoakController(restored, opts.Observer)
		if admitState != nil {
			ctrl.RestoreState(*admitState)
		}
		st.eng.Close()
		st = soakState{eng: restored, ctrl: ctrl}
		restores++
		return nil
	}

	for i, ev := range trace {
		switch i {
		case q1:
			runtime.ReadMemStats(&msMid1)
		case q2:
			runtime.ReadMemStats(&msMid2)
		case q3:
			runtime.ReadMemStats(&msHi)
		}
		if ev.Arrival {
			offered++
			tpl := churnTemplates[ev.Template]
			ph := make([]string, len(tpl.StageExecMs))
			for i := range ph {
				ph[i] = "r0"
			}
			t, curve, err := tpl.Instantiate(ev.Name, ph)
			if err != nil {
				return nil, err
			}
			d, err := st.ctrl.OfferPlaced(admit.Candidate{Task: t, Curve: curve})
			if err != nil {
				return nil, err
			}
			if d.Admitted {
				admitted++
			} else {
				rejected++
			}
		} else {
			d, err := st.ctrl.Remove(ev.Name)
			if err != nil {
				return nil, err
			}
			if d.Admitted {
				departures++
			}
		}
		events++
		pr := st.eng.Probe()
		utilSeries.Append(float64(events), pr.Utility)
		if pr.MaxResourceViolation > tol || pr.MaxPathViolationFrac > tol {
			violations++
		}
		if events%plan.checkpointEvery == 0 {
			ck := events / plan.checkpointEvery
			if ck%plan.crashEveryCk == 0 {
				if err := crash(); err != nil {
					return nil, err
				}
			} else if err := save(false); err != nil {
				return nil, err
			}
		}
	}
	allocEarly := float64(msMid1.Mallocs-msLo.Mallocs) / float64(max(q1, 1))
	allocLate := float64(msHi.Mallocs-msMid2.Mallocs) / float64(max(q3-q2, 1))
	allocsFlat := allocLate <= 2*allocEarly

	// Phase 2: the distributed runtime under chaos with coordinator failover.
	dres, distMaxDiff, distFeasible, err := soakFailover(seed, plan, dir, opts.Observer, func(epoch uint64) {
		// The restarted coordinator persists its generation: the next
		// restart (and the next soak) recovers the epoch from disk.
		baseEpoch = epoch
		_, _ = writer.Save(rec.Capture(st.eng, rec.CaptureOptions{
			Epoch: epoch, Seed: seed, Admit: st.ctrl,
		}))
		if rm != nil {
			rm.Epoch.Set(float64(epoch))
			rm.Rejoins.Inc()
		}
	})
	if err != nil {
		return nil, err
	}
	if rm != nil {
		rm.FencedFrames.Add(dres.FencedStale)
	}

	res := &Result{
		ID: "soak",
		Title: fmt.Sprintf("Chaos soak: %d churn events, %d engine crash/restore cycles, %d coordinator crashes (seed %d)",
			events, restores, dres.CoordinatorRestarts, seed),
	}
	res.RoundsToConverge = coldRounds

	meanWarm := 0.0
	if restores > 0 {
		meanWarm = float64(warmRoundsSum) / float64(restores)
	}
	summary := &Table{
		Title: "Soak summary",
		Header: []string{"phase", "events", "admitted", "rejected", "departed", "violations",
			"restores", "bitwise mismatches", "warm mean", "warm max", "cold"},
	}
	summary.AddRow("engine-churn",
		fmt.Sprintf("%d", events), fmt.Sprintf("%d", admitted), fmt.Sprintf("%d", rejected),
		fmt.Sprintf("%d", departures), fmt.Sprintf("%d", violations),
		fmt.Sprintf("%d", restores), fmt.Sprintf("%d", bitwiseMismatches),
		f1(meanWarm), fmt.Sprintf("%d", warmRoundsMax), fmt.Sprintf("%d", coldRounds))
	res.Tables = append(res.Tables, summary)

	failover := &Table{
		Title:  "Coordinator failover under chaos",
		Header: []string{"rounds", "restarts", "epoch", "fenced stale", "rejoins", "retransmits", "max |dist-engine|"},
	}
	failover.AddRow(
		fmt.Sprintf("%d", plan.distRounds),
		fmt.Sprintf("%d", dres.CoordinatorRestarts),
		fmt.Sprintf("%d", dres.Epoch),
		fmt.Sprintf("%d", dres.FencedStale),
		fmt.Sprintf("%d", dres.Rejoins),
		fmt.Sprintf("%d", dres.Retransmits),
		fmt.Sprintf("%.2e", distMaxDiff))
	res.Tables = append(res.Tables, failover)
	res.Series = append(res.Series, utilSeries, warmSeries)

	// Acceptance verdicts — every "FAILED" below is a hard failure for the
	// soak test and the CI smoke job.
	verdict := func(ok bool, pass, fail string) {
		if ok {
			res.Notes = append(res.Notes, pass)
		} else {
			res.Notes = append(res.Notes, "verdict: FAILED — "+fail)
		}
	}
	if !opts.Quick {
		verdict(events >= plan.minEvents,
			fmt.Sprintf("churn volume: %d events (target ≥ %d)", events, plan.minEvents),
			fmt.Sprintf("only %d churn events, need ≥ %d", events, plan.minEvents))
	}
	verdict(violations == 0,
		"critical-time violations: 0 across every crash/restore cycle",
		fmt.Sprintf("%d critical-time violation events", violations))
	verdict(restores > 0 && bitwiseMismatches == 0,
		fmt.Sprintf("restore fidelity: %d restores, every one bitwise-identical to the live engine", restores),
		fmt.Sprintf("%d of %d restores diverged from the live engine", bitwiseMismatches, restores))
	// The strict warm-vs-cold comparison is the recovery benchmark's
	// regression gate; the soak only bounds the worst recovery.
	verdict(warmFailures == 0 && coldRounds > 0 && warmRoundsMax <= 2*coldRounds,
		fmt.Sprintf("warm recovery bounded: max %d rounds ≤ 2× rounds_to_converge (%d)",
			warmRoundsMax, coldRounds),
		fmt.Sprintf("warm recovery (max %d rounds, %d failures) exceeds 2× rounds_to_converge (%d)",
			warmRoundsMax, warmFailures, coldRounds))
	// Allocation counts vary from run to run (the runtime allocates too), so
	// only a failure prints them: the report stays a function of the seed.
	verdict(allocsFlat, "allocation rate flat: late allocs/event ≤ 2× early",
		fmt.Sprintf("allocation rate grew: %.0f allocs/event late vs %.0f early", allocLate, allocEarly))
	verdict(dres.CoordinatorRestarts >= len(plan.distCrashes),
		fmt.Sprintf("coordinator crashes: %d executed, final epoch %d", dres.CoordinatorRestarts, dres.Epoch),
		fmt.Sprintf("only %d of %d scheduled coordinator crashes executed", dres.CoordinatorRestarts, len(plan.distCrashes)))
	verdict(dres.FencedStale > 0,
		fmt.Sprintf("epoch fencing: %d stale-generation frames fenced (zombie probe included)", dres.FencedStale),
		"no stale-epoch frame was fenced despite the zombie probe")
	verdict(distMaxDiff <= 1e-9 && distFeasible,
		fmt.Sprintf("distributed recovery exact: max |dist−engine| = %.2e, final state feasible", distMaxDiff),
		fmt.Sprintf("distributed run diverged (max diff %.2e) or ended infeasible", distMaxDiff))
	return res, nil
}

// soakFailover is the soak's second phase: the base workload on the
// distributed runtime's virtual driver (dist.NewSim) with the plan's
// coordinator crashes, the zombie probe, and epoch recovery from the
// checkpoint directory. Timers, downtimes and injected delays are virtual
// durations, so the crash schedule is part of the clock and the phase replays
// exactly from the seed. Loss stays at zero — downtime already destroys
// reports — while duplication, delay and reordering keep stale pre-crash
// frames racing every rejoin. maxDiff is the run's largest deviation from the
// serial engine after the same rounds (it must be zero), feasible whether
// that state is.
func soakFailover(seed int64, plan soakPlan, dir string, o *obs.Observer, onRestart func(epoch uint64)) (dres *dist.Result, maxDiff float64, feasible bool, err error) {
	rt, err := dist.NewSim(workload.Base(), Options{}.engineConfig(), transport.ChaosConfig{
		Seed:          seed,
		DupRate:       0.05,
		DelayMs:       0.3,
		DelayJitterMs: 0.3,
		ReorderRate:   0.05,
	})
	if err != nil {
		return nil, 0, false, err
	}
	rt.SetFaultPolicy(dist.FaultPolicy{
		RetransmitAfter: 2 * time.Millisecond,
		RetransmitMax:   40 * time.Millisecond,
		LeaseAfter:      20 * time.Millisecond,
	})
	rt.Observe(o)
	dres, err = rt.RunWithFailover(plan.distRounds, dist.FailoverPlan{
		Crashes:       plan.distCrashes,
		CheckpointDir: dir,
		ZombieProbe:   true,
		OnRestart:     onRestart,
	})
	if err != nil {
		return nil, 0, false, err
	}
	mirror, err := core.NewEngine(workload.Base(), Options{}.engineConfig())
	if err != nil {
		return nil, 0, false, err
	}
	defer mirror.Close()
	mirror.Run(plan.distRounds, nil)
	msnap := mirror.Snapshot()
	for ti := range msnap.LatMs {
		for si := range msnap.LatMs[ti] {
			maxDiff = math.Max(maxDiff, math.Abs(dres.LatMs[ti][si]-msnap.LatMs[ti][si]))
		}
	}
	for ri := range msnap.Mu {
		maxDiff = math.Max(maxDiff, math.Abs(dres.Mu[ri]-msnap.Mu[ri]))
	}
	const tol = 1e-3
	mprobe := mirror.Probe()
	return dres, maxDiff, mprobe.MaxResourceViolation <= tol && mprobe.MaxPathViolationFrac <= tol, nil
}

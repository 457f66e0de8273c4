package dist

import (
	"fmt"
	"sync"
	"time"

	"lla/internal/obs"
	rec "lla/internal/recover"
	"lla/internal/stats"
	"lla/internal/transport"
	"lla/internal/wire"
)

// Coordinator failover (DESIGN.md §13). The coordinator is deliberately off
// the protocol's critical path: reports are fire-and-forget and round
// progress gates only on node-to-node frames, so a coordinator crash never
// stalls the optimization — it only blinds aggregation, convergence
// detection, and admission. Failover therefore has to restore exactly that
// aggregation view: a restarted coordinator loads the latest checkpoint for
// its epoch, bumps it, re-registers the live nodes with a rejoin handshake,
// and fences every frame from the dead generation so a zombie instance can
// never split-brain the cluster.

// Crash schedules one coordinator crash/restart cycle in a FailoverPlan.
type Crash struct {
	// AfterEmit triggers the crash once the coordinator has emitted this many
	// fully reported rounds.
	AfterEmit int
	// DownFor is how long the coordinator stays dead before restarting.
	DownFor time.Duration
}

// FailoverPlan drives RunWithFailover: scheduled coordinator crashes, the
// chaos layer that blackholes the dead coordinator, and the checkpoint
// directory the restarted coordinator recovers its epoch from.
type FailoverPlan struct {
	// Chaos, when non-nil, blackholes the coordinator address while it is
	// down (transport.Chaos.Crash/Restart), so in-flight reports are lost
	// exactly as they would be against a dead process.
	Chaos *transport.Chaos
	// Crashes is the schedule, executed in order.
	Crashes []Crash
	// CheckpointDir, when set, seeds the initial epoch from the newest
	// checkpoint (recover.Latest) and re-reads it at every restart — the
	// "restarted coordinator loads the latest checkpoint" path. Missing or
	// unreadable directories fall back to the in-memory epoch.
	CheckpointDir string
	// OnRestart, when non-nil, runs after each epoch bump (from the
	// coordinator goroutine) so the harness can persist a checkpoint carrying
	// the new epoch.
	OnRestart func(epoch uint64)
	// ZombieProbe, when true, has every restarted coordinator impersonate its
	// own dead generation once: a stale-epoch stop frame (AfterRound 0) is
	// sent to every rejoined controller. A correctly fencing node discards and
	// counts it; a node that failed to fence would halt immediately and the
	// run would visibly collapse.
	ZombieProbe bool
	// RelTol and Window enable convergence detection (as RunUntilConverged)
	// when Window > 0.
	RelTol float64
	Window int
}

// RunWithFailover executes up to maxRounds synchronous rounds while crashing
// and restarting the coordinator according to plan. Node state is never
// touched — the run's final latencies and prices are bitwise identical to an
// uninterrupted run — but aggregate reporting is best-effort across the
// crash gaps: rounds whose reports died with a coordinator generation are
// skipped by the emission cursor, so Result.Rounds may trail further than an
// uninterrupted run's would.
func (r *Runtime) RunWithFailover(maxRounds int, plan FailoverPlan) (*Result, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("dist: rounds must be positive, got %d", maxRounds)
	}
	var det *stats.ConvergenceDetector
	if plan.Window > 0 {
		det = stats.NewConvergenceDetector(plan.RelTol, plan.Window)
	}
	epoch := uint64(0)
	if plan.CheckpointDir != "" {
		if cp, _, err := rec.Latest(plan.CheckpointDir); err == nil {
			epoch = cp.Epoch
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(r.ctlNodes)*2+len(r.resNodes)*2+8)
	r.startNodes(maxRounds, &wg, errCh)

	res := &Result{UtilitySeries: stats.NewSeries("utility"), Epoch: epoch}
	coordDone := make(chan struct{})
	go r.failoverCoordinator(maxRounds, det, plan, epoch, res, errCh, coordDone)

	wg.Wait()
	r.coordinator.Close()
	<-coordDone
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	r.collect(res)
	return res, nil
}

// coordinator lifecycle states.
const (
	coordUp     = iota // normal aggregation
	coordDown          // crashed: reads nothing, remembers nothing
	coordRejoin        // restarted: collecting rejoin acks
)

// failoverCoordinator is the run-loop coordinator with a crash schedule. It
// mirrors run()'s aggregation (in-order emission, leases, admission) and adds
// the three-state crash/restart/rejoin machine around it.
func (r *Runtime) failoverCoordinator(maxRounds int, det *stats.ConvergenceDetector, plan FailoverPlan, epoch uint64, res *Result, errCh chan<- error, done chan struct{}) {
	defer close(done)
	perRound := make(map[int]float64)
	counts := make(map[int]int)
	converged := false
	nextEmit := 0
	emitted := 0
	lastReport := make(map[string]time.Time)
	expired := make(map[string]bool)
	start := time.Now()
	lastEmit := start
	for ti := range r.p.Tasks {
		lastReport[r.p.Tasks[ti].Name] = start
	}
	var lease <-chan time.Time
	if r.fp.LeaseAfter > 0 {
		t := time.NewTicker(r.fp.LeaseAfter)
		defer t.Stop()
		lease = t.C
	}

	ackWindow := r.fp.RetransmitAfter
	if ackWindow <= 0 {
		ackWindow = 20 * time.Millisecond
	}
	state := coordUp
	nextCrash := 0
	var downC, ackC <-chan time.Time
	acked := make(map[string]bool)
	maxAckRound := -1
	rejoinAttempts := 0

	// crash kills this coordinator generation: its network goes dark and its
	// aggregation memory is lost.
	crash := func() {
		if plan.Chaos != nil {
			plan.Chaos.Crash(coordinatorAddr)
		}
		perRound = make(map[int]float64)
		counts = make(map[int]int)
		state = coordDown
		downC = time.After(plan.Crashes[nextCrash].DownFor)
	}

	// restart brings a fresh generation up: reload the checkpointed epoch,
	// bump it, reconnect, and start the rejoin handshake.
	restart := func() {
		if plan.CheckpointDir != "" {
			if cp, _, err := rec.Latest(plan.CheckpointDir); err == nil && cp.Epoch > epoch {
				epoch = cp.Epoch
			}
		}
		epoch++
		res.Epoch = epoch
		res.CoordinatorRestarts++
		nextCrash++
		if plan.Chaos != nil {
			plan.Chaos.Restart(coordinatorAddr)
		}
		if plan.OnRestart != nil {
			plan.OnRestart(epoch)
		}
		if r.obsv != nil {
			r.obsv.Emit(obs.Event{Kind: obs.EventEpochBump, Round: nextEmit, Value: float64(epoch)})
		}
		now := time.Now()
		for ti := range r.p.Tasks {
			lastReport[r.p.Tasks[ti].Name] = now
		}
		expired = make(map[string]bool)
		acked = make(map[string]bool)
		maxAckRound = -1
		rejoinAttempts = 0
		r.broadcastRejoin(epoch, nil, errCh)
		state = coordRejoin
		downC = nil
		ackC = time.After(ackWindow)
	}

	if epoch > 0 {
		// Seeded from a checkpoint: announce the generation before
		// aggregating anything — nodes boot at epoch 0 and every report they
		// send would otherwise be fenced as stale.
		r.broadcastRejoin(epoch, nil, errCh)
		state = coordRejoin
		ackC = time.After(ackWindow)
	}

	// resync ends the rejoin handshake: jump the emission cursor past the
	// rounds whose reports died with the previous generation and resume.
	resync := func() {
		if maxAckRound+1 > nextEmit {
			nextEmit = maxAckRound + 1
		}
		for round := range counts {
			if round < nextEmit {
				delete(counts, round)
				delete(perRound, round)
			}
		}
		if plan.ZombieProbe {
			// Impersonate the dead generation: every rejoined controller must
			// fence this or halt on the spot.
			zombie := wire.Stop{AfterRound: 0, Epoch: epoch - 1}
			for task := range acked {
				if err := r.coordinator.Send(controllerAddr(task), wire.KindStop, zombie); err != nil {
					errCh <- err
				}
			}
		}
		state = coordUp
		ackC = nil
	}

	for {
		select {
		case m, ok := <-r.coordinator.Recv():
			if !ok {
				return
			}
			if state == coordDown {
				continue // a dead process reads nothing
			}
			var rm wire.UtilityReport
			switch am := m.Payload.(type) {
			case wire.UtilityReport:
				rm = am
			case wire.RejoinAck:
				if am.Epoch != epoch {
					res.FencedStale++
					continue
				}
				if !acked[am.Task] {
					acked[am.Task] = true
					res.Rejoins++
					if am.Round > maxAckRound {
						maxAckRound = am.Round
					}
				}
				if state == coordRejoin && len(acked) == len(r.ctlNodes) {
					resync()
				}
				continue
			default:
				if m.Kind == kindAdmitQuery {
					r.handleAdmitQuery(m, res)
				}
				continue
			}
			if rm.Epoch != epoch {
				// A report from a fenced-off generation: sent before its
				// controller processed the rejoin, or retransmitted from
				// before the crash.
				res.FencedStale++
				continue
			}
			lastReport[rm.Task] = time.Now()
			delete(expired, rm.Task)
			perRound[rm.Round] += rm.Utility
			counts[rm.Round]++
			for counts[nextEmit] == len(r.ctlNodes) {
				u := perRound[nextEmit]
				res.UtilitySeries.Append(float64(nextEmit), u)
				delete(perRound, nextEmit)
				delete(counts, nextEmit)
				emitted++
				if r.dm != nil {
					now := time.Now()
					r.dm.Rounds.Inc()
					r.dm.RoundSeconds.Observe(now.Sub(lastEmit).Seconds())
					lastEmit = now
				}
				if det != nil && !converged && det.Observe(u) {
					converged = true
					res.Converged = true
					if r.obsv != nil {
						r.obsv.Emit(obs.Event{Kind: obs.EventConverged, Round: nextEmit, Value: u})
					}
					r.broadcastStop(nextEmit+1, epoch, errCh)
				}
				nextEmit++
			}
			if state == coordUp && !converged &&
				nextCrash < len(plan.Crashes) && emitted >= plan.Crashes[nextCrash].AfterEmit {
				crash()
			}
		case <-downC:
			restart()
		case <-ackC:
			if state != coordRejoin {
				continue
			}
			rejoinAttempts++
			if rejoinAttempts > 10 {
				// Some controllers never acked (already fully drained): resume
				// with the acks in hand rather than stalling the join.
				resync()
				continue
			}
			r.broadcastRejoin(epoch, acked, errCh)
			ackC = time.After(ackWindow)
		case <-lease:
			if state == coordDown {
				continue
			}
			now := time.Now()
			for task, ts := range lastReport {
				if now.Sub(ts) > r.fp.LeaseAfter && !expired[task] {
					expired[task] = true
					res.LeaseExpirations++
					if r.dm != nil {
						r.dm.LeaseExpirations.Inc()
					}
					if r.obsv != nil {
						r.obsv.Emit(obs.Event{Kind: obs.EventLeaseExpiry, Round: nextEmit, Task: task})
					}
				}
			}
		}
	}
}

// broadcastRejoin announces the new epoch. Controllers not yet in skip are
// asked to re-register (they ack and re-send their cached report); resources
// always get the announcement so they adopt the epoch for stop fencing.
func (r *Runtime) broadcastRejoin(epoch uint64, skip map[string]bool, errCh chan<- error) {
	msg := wire.Rejoin{Epoch: epoch}
	for ti := range r.p.Tasks {
		name := r.p.Tasks[ti].Name
		if skip[name] {
			continue
		}
		if err := r.coordinator.Send(controllerAddr(name), wire.KindRejoin, msg); err != nil {
			errCh <- err
		}
	}
	for ri := range r.p.Resources {
		if err := r.coordinator.Send(resourceAddr(r.p.Resources[ri].ID), wire.KindRejoin, msg); err != nil {
			errCh <- err
		}
	}
}

package dist

import (
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	rec "lla/internal/recover"
	"lla/internal/transport"
	"lla/internal/wire"
)

// The coordinator is off the protocol's critical path (DESIGN.md §7): a
// crash blinds aggregation and the certificate stop, never a round. Failover
// restores that view: a restarted coordinator loads the latest checkpoint's
// epoch, bumps it, re-registers the live nodes with a rejoin handshake and
// fences every frame of the dead generation. An uninterrupted run is the
// same machine with an empty crash plan.

// Crash schedules one coordinator crash/restart cycle in a FailoverPlan.
type Crash struct {
	// AfterEmit triggers the crash once the coordinator has emitted this many
	// fully reported rounds.
	AfterEmit int
	// DownFor is how long (on the driver's clock) the coordinator stays dead
	// before restarting.
	DownFor time.Duration
}

// FailoverPlan drives RunWithFailover: scheduled coordinator crashes and the
// checkpoint directory the restarted coordinator recovers its epoch from.
type FailoverPlan struct {
	// Crashes is the schedule, executed in order.
	Crashes []Crash
	// CheckpointDir, when set, seeds the initial epoch from the newest
	// checkpoint (recover.LatestEpoch: a directory of undecodable ones fails
	// the run) and re-reads it at every restart, where an unreadable
	// directory keeps the in-memory epoch.
	CheckpointDir string
	// OnRestart, when non-nil, runs after each epoch bump (from the
	// coordinator's step) so the harness can persist a checkpoint carrying
	// the new epoch.
	OnRestart func(epoch uint64)
	// ZombieProbe, when true, has every restarted coordinator impersonate its
	// own dead generation once: a stale-epoch stop frame (AfterRound 0) is
	// sent to every rejoined controller. A correctly fencing node discards and
	// counts it; a node that failed to fence would halt immediately and the
	// run would visibly collapse.
	ZombieProbe bool
}

// coordinator lifecycle states.
const (
	coordUp     = iota // normal aggregation
	coordDown          // crashed: reads nothing, remembers nothing
	coordRejoin        // restarted: collecting rejoin acks
)

// coordinator is the machine that aggregates per-round reports in round
// order, watches a report lease per task, broadcasts the certificate stop,
// and lives through its crash plan. node.epoch is the generation it runs as.
type coordinator struct {
	node
	rt *Runtime
	// untilKKT stops the run on the certificate; passed counts the
	// consecutive emitted rounds whose certificate passed. It is never set
	// together with a crash plan, so no crash or resync resets passed.
	untilKKT bool
	passed   int
	plan     FailoverPlan
	res      *Result
	taskIdx  map[string]int

	// open holds the rounds with some but not all reports in.
	open      map[int]*tally
	nextEmit  int // the round awaited (res.Rounds counts those emitted)
	converged bool
	// lastReport and expired are the report leases, by task index.
	lastReport []time.Duration
	expired    []bool
	lastEmit   time.Duration

	state, nextCrash            int
	acked                       []bool
	nAcked                      int
	maxAckRound, rejoinAttempts int
	leaseAt, downAt, ackAt      time.Duration
	// ackWindow is how long a restarted coordinator waits for rejoin acks
	// before asking the silent controllers again.
	ackWindow time.Duration
}

// tally is one round's reports, a slot per task: a duplicated report counts
// once (a second count would push the round past "all in" and stall the
// emission cursor for good), the round's utility is summed in task order,
// and cert folds the tasks' certificates — maxima, exact in any order.
type tally struct {
	utility []float64
	have    []bool
	n       int
	cert    core.Certificate
}

func (c *coordinator) ids() (int, uint64, string) { return c.nextEmit, c.epoch, c.addr }

// step is the coordinator protocol.
func (c *coordinator) step(now time.Duration, ev event) *effects {
	c.begin()
	switch ev.kind {
	case evStart:
		n := len(c.rt.ctlNodes)
		c.open = make(map[int]*tally)
		c.lastReport, c.expired, c.acked = make([]time.Duration, n), make([]bool, n), make([]bool, n)
		c.lastEmit = now
		c.resetLeases(now)
		if c.fp.LeaseAfter > 0 {
			c.leaseAt = now + c.fp.LeaseAfter
		}
		if c.ackWindow = c.fp.RetransmitAfter; c.ackWindow <= 0 {
			c.ackWindow = 20 * time.Millisecond
		}
		if c.epoch > 0 {
			// Seeded from a checkpoint: announce the generation before
			// aggregating anything — nodes boot at epoch 0 and every report
			// they send would otherwise be fenced as stale.
			c.startRejoin(now)
		}
	case evStop, evClosed:
		c.finish(nil)
	case evMessage:
		if c.state != coordDown { // a dead process reads nothing
			c.receive(now, ev.msg)
		}
	case evTimer:
		if c.downAt != 0 && now >= c.downAt {
			c.restart(now)
		}
		if c.ackAt != 0 && now >= c.ackAt {
			if c.rejoinAttempts++; c.rejoinAttempts > 10 {
				// Some controllers never acked (already fully drained):
				// resume with the acks in hand rather than stalling the join.
				c.resync()
			} else {
				c.broadcastRejoin(now)
			}
		}
		if c.leaseAt != 0 && now >= c.leaseAt {
			c.leaseAt = now + c.fp.LeaseAfter
			for ti := range c.lastReport {
				if c.state != coordDown && !c.expired[ti] && now-c.lastReport[ti] > c.fp.LeaseAfter {
					c.expired[ti] = true
					c.res.LeaseExpirations++
					c.m.LeaseExpirations.Inc()
					c.emit(obs.Event{Kind: obs.EventLeaseExpiry, Task: c.rt.ctlNodes[ti].name})
				}
			}
		}
	}
	c.wakeAt(c.leaseAt)
	c.wakeAt(c.downAt)
	c.wakeAt(c.ackAt)
	return &c.out
}

func (c *coordinator) resetLeases(now time.Duration) {
	for ti := range c.lastReport {
		c.lastReport[ti], c.expired[ti] = now, false
	}
}

func (c *coordinator) receive(now time.Duration, m transport.Message) {
	switch pl := m.Payload.(type) {
	case wire.UtilityReport:
		c.report(now, pl)
	case wire.RejoinAck:
		ti, ok := c.taskIdx[pl.Task]
		if pl.Epoch != c.epoch || !ok {
			c.res.FencedStale++
			return
		}
		if !c.acked[ti] {
			c.acked[ti] = true
			c.nAcked++
			c.res.Rejoins++
			c.maxAckRound = max(c.maxAckRound, pl.Round)
		}
		if c.state == coordRejoin && c.nAcked == len(c.acked) {
			c.resync()
		}
	}
}

// report folds one utility report and emits completed rounds strictly in
// order: a fast controller's round r+1 report can beat a slow controller's
// round r report.
func (c *coordinator) report(now time.Duration, rm wire.UtilityReport) {
	ti, ok := c.taskIdx[rm.Task]
	if rm.Epoch != c.epoch || !ok {
		// A report from a fenced-off generation: sent before its controller
		// processed the rejoin, or retransmitted from before the crash.
		c.res.FencedStale++
		return
	}
	c.lastReport[ti], c.expired[ti] = now, false
	tl := c.open[rm.Round]
	if tl == nil && rm.Round >= c.nextEmit {
		tl = &tally{utility: make([]float64, len(c.acked)), have: make([]bool, len(c.acked))}
		c.open[rm.Round] = tl
	}
	if tl != nil && !tl.have[ti] {
		tl.utility[ti], tl.have[ti] = rm.Utility, true
		tl.cert.KKTMax = max(tl.cert.KKTMax, rm.KKTMax)
		tl.cert.MaxPathViolationFrac = max(tl.cert.MaxPathViolationFrac, rm.PathViolation)
		tl.cert.MaxResourceViolation = max(tl.cert.MaxResourceViolation, rm.Excess)
		tl.n++
		if tl.n == len(c.acked) {
			// Every controller has reported this round, so each is past the
			// earlier ones: a report still missing from those is lost
			// (reports are fire-and-forget), and waiting for it would stall
			// the cursor — and the certificate stop — for good. Skip them;
			// a skipped round is unproven, so the stop's count restarts.
			for ; c.nextEmit < rm.Round; c.nextEmit++ {
				delete(c.open, c.nextEmit)
				c.passed = 0
			}
		}
	}
	for tl = c.open[c.nextEmit]; tl != nil && tl.n == len(c.acked); tl = c.open[c.nextEmit] {
		u := 0.0
		for _, v := range tl.utility {
			u += v
		}
		round := c.nextEmit
		delete(c.open, round)
		c.nextEmit++
		c.res.Rounds++
		c.m.Rounds.Inc()
		c.m.RoundSeconds.Observe((now - c.lastEmit).Seconds())
		c.lastEmit = now
		c.certify(round, u, tl.cert)
	}
	if c.state == coordUp && !c.converged &&
		c.nextCrash < len(c.plan.Crashes) && c.res.Rounds >= c.plan.Crashes[c.nextCrash].AfterEmit {
		// This generation dies: it reads nothing until it restarts, and its
		// aggregation memory is lost.
		clear(c.open)
		c.state = coordDown
		c.downAt = now + c.plan.Crashes[c.nextCrash].DownFor
	}
}

// certify applies the stopping rule to emitted round k's certificate (round
// 0, the starting point, is never graded). When the verdict lands the nodes
// can be a round past k, and the stop takes a hop more, so it names round
// k+2: the final state is the engine's after k+2 Steps. A node the stop
// misses learns it from its peers (peer.go, controllerNode.linger).
func (c *coordinator) certify(k int, u float64, cert core.Certificate) {
	if !c.untilKKT || c.converged || k == 0 {
		return
	}
	if cert.KKTMax < core.StopKKTTol && cert.MaxResourceViolation < core.StopTol && cert.MaxPathViolationFrac < core.StopTol {
		c.passed++
	} else {
		c.passed = 0
	}
	if c.passed < core.StopWindow {
		return
	}
	c.converged, c.res.Converged = true, true
	c.emit(obs.Event{Kind: obs.EventConverged, Iteration: k, Value: u})
	c.broadcast(wire.KindStop, wire.Stop{AfterRound: k + 2, Epoch: c.epoch}, nil)
}

// restart brings a fresh generation up: reload the checkpointed epoch, bump
// it, reconnect, and start the rejoin handshake.
func (c *coordinator) restart(now time.Duration) {
	if epoch, err := rec.LatestEpoch(c.plan.CheckpointDir); err == nil && epoch > c.epoch {
		c.epoch = epoch
	}
	c.epoch++
	c.res.Epoch = c.epoch
	c.res.CoordinatorRestarts++
	c.nextCrash++
	if c.plan.OnRestart != nil {
		c.plan.OnRestart(c.epoch)
	}
	c.emit(obs.Event{Kind: obs.EventEpochBump, Value: float64(c.epoch)})
	c.resetLeases(now)
	c.downAt = 0
	c.startRejoin(now)
}

func (c *coordinator) startRejoin(now time.Duration) {
	clear(c.acked)
	c.nAcked, c.maxAckRound, c.rejoinAttempts = 0, -1, 0
	c.state = coordRejoin
	c.broadcastRejoin(now)
}

// broadcastRejoin announces the epoch and opens an ack window. Controllers
// that have not acked are asked to re-register (they ack and re-send their
// cached report); resources always get the announcement so they adopt the
// epoch for stop fencing.
func (c *coordinator) broadcastRejoin(now time.Duration) {
	c.broadcast(wire.KindRejoin, wire.Rejoin{Epoch: c.epoch}, c.acked)
	c.ackAt = now + c.ackWindow
}

// broadcast sends one control frame to every controller not in skip, then to
// every resource (rt.peers lists the controllers first, in skip's order). A
// stop is best-effort: nodes pass it on, so the run can end before its last
// copy is out.
func (c *coordinator) broadcast(kind string, payload any, skip []bool) {
	for i, n := range c.rt.peers {
		if i >= len(skip) || !skip[i] {
			c.send(n.addr, kind, payload, kind != wire.KindStop)
		}
	}
}

// resync ends the rejoin handshake: jump the emission cursor past the rounds
// whose reports died with the previous generation and resume.
func (c *coordinator) resync() {
	c.nextEmit = max(c.nextEmit, c.maxAckRound+1)
	for round := range c.open {
		if round < c.nextEmit {
			delete(c.open, round)
		}
	}
	if c.plan.ZombieProbe {
		// Impersonate the dead generation: every rejoined controller must
		// fence this or halt on the spot.
		zombie := wire.Stop{AfterRound: 0, Epoch: c.epoch - 1}
		for ti, n := range c.rt.ctlNodes {
			if c.acked[ti] {
				c.send(n.addr, wire.KindStop, zombie, true)
			}
		}
	}
	c.state, c.ackAt = coordUp, 0
}

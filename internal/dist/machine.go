package dist

import (
	"fmt"
	"time"

	"lla/internal/obs"
	"lla/internal/transport"
)

// Node state machines (DESIGN.md §7). Each role of Section 4.1 — resource,
// controller, coordinator — is one machine: step(now, event) folds one event
// into the node's state and returns the effects it asks of its driver. A
// machine never blocks, reads no clock and touches no endpoint; its logical
// timers are deadlines, and it wakes at the earliest. Two drivers run the
// machines: drive (real.go) over an Endpoint and the wall clock, and Sim
// (sim.go) over a seeded event heap.

// evKind discriminates an event.
type evKind uint8

const (
	evStart   evKind = iota // the run begins
	evMessage               // msg arrived
	evTimer                 // the wake deadline may have passed (spurious wakes are harmless)
	evStop                  // graceful stop: Shutdown, a cancelled context, the end of a virtual run
	evClosed                // the endpoint closed under the node
)

func (k evKind) String() string {
	return [...]string{"start", "message", "timer", "stop", "closed"}[k]
}

// event is one input of a machine.
type event struct {
	kind evKind
	msg  transport.Message // evMessage only
}

// send is one outgoing message. A must send that fails ends the node with
// that error; the others are best-effort (what a lost message is anyway).
type send struct {
	to, kind string
	payload  any
	must     bool
}

// effects is what one step asks of its driver: messages to send in order,
// trace events to stamp and emit, the absolute time of the next evTimer
// (0: none), and whether the node has finished.
type effects struct {
	sends  []send
	events []obs.Event
	wake   time.Duration
	done   bool
	err    error
}

// machine is what a driver runs.
type machine interface {
	step(now time.Duration, ev event) *effects
	// ids are the round, epoch and address every trace event of the machine
	// is stamped with — by the driver (publish), not by the emitting line.
	ids() (round int, epoch uint64, addr string)
}

// publish stamps a step's trace events with the machine's ids — and with the
// driver's time, when it is not the wall clock's (0) — and emits them.
func publish(o *obs.Observer, m machine, eff *effects, unixNano int64) {
	if o == nil {
		return
	}
	for _, ev := range eff.events {
		ev.Round, ev.Epoch, ev.Node = m.ids()
		ev.TimeUnixNano = unixNano
		o.Emit(ev)
	}
}

// node is the state every machine has: identity, fault policy, the jitter
// source of its backoff, the coordinator generation it has adopted, its
// counters, and the effects buffer step returns.
type node struct {
	addr string
	fp   FaultPolicy
	rng  interface{ Float64() float64 }
	// epoch is the adopted coordinator generation (monotone max over rejoin
	// and stop frames); fencedEpoch counts the stale-generation control
	// frames discarded (wire/frames.go).
	epoch       uint64
	fencedEpoch int64
	nodeCounters
	out effects
}

// begin resets the effects buffer for one step.
func (n *node) begin() {
	n.out.sends, n.out.events = n.out.sends[:0], n.out.events[:0]
	n.out.wake = 0
}

func (n *node) send(to, kind string, payload any, must bool) {
	n.out.sends = append(n.out.sends, send{to, kind, payload, must})
}

func (n *node) emit(ev obs.Event) { n.out.events = append(n.out.events, ev) }

// finish ends the node; a nil err is a completed (or gracefully stopped) run.
func (n *node) finish(err error) {
	n.out.done, n.out.err = true, err
}

func (n *node) failf(format string, args ...any) {
	n.finish(fmt.Errorf("dist: %s: %s", n.addr, fmt.Sprintf(format, args...)))
}

// fenced adopts a coordinator control frame's epoch, or reports (and counts)
// that the frame comes from a generation already fenced off.
func (n *node) fenced(epoch uint64) bool {
	if epoch < n.epoch {
		n.fencedEpoch++
		return true
	}
	n.epoch = epoch
	return false
}

// backoff is the jittered retransmission wait for the given attempt.
func (n *node) backoff(attempt int) time.Duration {
	return transport.Backoff(n.rng, attempt, n.fp.RetransmitAfter, n.fp.RetransmitMax)
}

// wakeAt lowers the step's wake deadline to t when t is armed (nonzero).
func (n *node) wakeAt(t time.Duration) {
	if t != 0 && (n.out.wake == 0 || t < n.out.wake) {
		n.out.wake = t
	}
}

// metrics are the live mirrors of the nodes' counters: handles on the
// registry of the observer attached, or — the zero value — nil handles,
// which are no-ops.
type metrics struct {
	obs.DistMetrics
	obs.SparseMetrics
}

func metricsFor(o *obs.Observer) (m metrics) {
	if o != nil && o.Metrics != nil {
		m = metrics{*obs.NewDistMetrics(o.Metrics), *obs.NewSparseMetrics(o.Metrics)}
	}
	return m
}

// nodeCounters are one node's fault-recovery and delta-codec totals, read by
// the runtime after the node has finished and mirrored live on m.
type nodeCounters struct {
	// retransmits counts messages re-sent (timeouts and receiver-side stale
	// recovery), rejectedStale messages rejected as from a completed round;
	// deltaSuppressed counts delta-encoded sends and deltaBytesSaved the
	// frame bytes those markers kept off the wire (wire.DeltaBytesSaved).
	retransmits, rejectedStale, deltaSuppressed, deltaBytesSaved int64
	m                                                            metrics
}

func (c *nodeCounters) retransmit() {
	c.retransmits++
	c.m.Retransmits.Inc()
}

func (c *nodeCounters) stale() {
	c.rejectedStale++
	c.m.RejectedStale.Inc()
}

// suppressed counts n delta markers that saved the given bytes in all.
func (c *nodeCounters) suppressed(n, saved int64) {
	c.deltaSuppressed += n
	c.deltaBytesSaved += saved
	c.m.DeltaBroadcasts.Add(n)
	c.m.SparseMetrics.DeltaBytesSaved.Add(saved)
}

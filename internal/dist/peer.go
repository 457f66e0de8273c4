package dist

import (
	"slices"
	"time"

	"lla/internal/transport"
	"lla/internal/wire"
)

// The peer protocol. A resource and a controller are the same machine with
// different roles: each waits for an input from every peer (a resource's
// peers are the controllers of the tasks running on it, a controller's the
// resources its subtasks use), computes (a price from latencies, latencies
// from prices), and tells every peer the result. peer is that machine; a
// role supplies what an input means, what to compute and what to say.
//
// Round-synchronized (pace == 0), it survives message loss, duplication and
// reordering without acknowledgements: folds are idempotent and each round
// gates on content-completeness, not delivery order. A node stalled waiting
// for its round's inputs re-sends its last output to the silent peers after
// RetransmitAfter, backing off exponentially (with jitter) up to
// RetransmitMax; and a message from a past round means its sender missed our
// latest output, so the cached counterpart is re-sent to that peer. A
// resource opens round r with its price, a controller answers with its
// round-r latencies, and neither can complete a round the other has not, so
// no message is ever from a future round, the cached message is always
// exactly what the stuck peer is waiting for, and the recovered run is
// bitwise identical to a loss-free run.
//
// Asynchronous (pace > 0), there is no round gate: a node computes on
// whatever has arrived, at most once per pace — unbounded relative staleness
// destabilizes the gradient updates, and on a real network the round trip
// provides this pacing for free. Messages carry a per-sender sequence number
// and receivers reject duplicates and reordered-stale deliveries; a node idle
// for RetransmitAfter re-advertises its state, at once the heartbeat that
// feeds failure detection and the recovery path for lost messages. A compute
// whose inputs are bitwise unchanged since a fixed-point update is skipped:
// it would republish the exact state already sent.

// role is what distinguishes a resource from a controller inside the peer
// protocol. A role embeds the peer it plays on and reads its round, seq and
// epoch when it builds a message.
type role interface {
	// read identifies one of the role's inputs: the peer it comes from and
	// the round it is for (its sequence number, asynchronously).
	read(payload any) (k, round int, seq int64, ok bool)
	// fold applies peer k's input and reports whether a value changed bitwise.
	fold(k int, payload any, now time.Duration) (changed bool)
	// compute updates the role's state from the inputs folded so far; moved
	// is false at a fixed point of the update.
	compute() (moved bool)
	// speak sends the freshly computed output to every peer, and caches it.
	speak()
	// again re-sends the cached output to peer k; false if there is none yet.
	again(k int) bool
	// open prepares the role at the start of a run; beat runs with every
	// asynchronous heartbeat; close ends the node after its last round.
	open(now time.Duration)
	beat(now time.Duration)
	close(now time.Duration)
	// rejoined answers a restarted coordinator whose epoch was just adopted.
	rejoined()
}

// deltaKeyframeInterval is the period of forced full-payload broadcasts of
// the delta codec (wire/frames.go): rounds divisible by it never use delta
// markers, bounding how long any recovery path can go without seeing a
// payload by value.
const deltaKeyframeInterval = 16

// peer is the protocol state of a resource or controller node.
type peer struct {
	node
	// peers are the addresses this node hears from and speaks to, in the
	// fixed order it sends in; kind is the message kind it sends; leads says
	// the node opens each round (a resource) rather than answers (a controller).
	peers []string
	kind  string
	leads bool
	// pace > 0 selects the asynchronous protocol.
	pace time.Duration

	// Round state: got marks the peers whose current-round input is folded,
	// missing counts the rest.
	round, limit, attempt int
	got                   []bool
	missing               int
	retransmitAt          time.Duration

	// Asynchronous state. dirty: an input changed bitwise since the last
	// compute; stable: that compute was a fixed point; owed: input arrived
	// and a compute is due at computeAt.
	dedup                            map[string]int64
	seq                              int64
	dirty, stable, owed              bool
	steps, skipped                   int
	lastSent, heartbeatAt, computeAt time.Duration
}

func (n *peer) ids() (int, uint64, string) {
	if n.pace > 0 {
		return n.steps, n.epoch, n.addr
	}
	return n.round, n.epoch, n.addr
}

// tell sends one of the node's own messages to peer k: a must send in the
// round protocol, best-effort asynchronously.
func (n *peer) tell(k int, payload any) {
	n.send(n.peers[k], n.kind, payload, n.pace == 0)
}

// run is the peer protocol: one step of the node playing role r.
func (n *peer) run(r role, now time.Duration, ev event) *effects {
	n.begin()
	switch ev.kind {
	case evStop:
		n.finish(nil)
	case evClosed:
		if n.pace > 0 {
			n.finish(nil)
		} else {
			n.failf("endpoint closed mid-protocol")
		}
	case evStart:
		n.got, n.missing = make([]bool, len(n.peers)), len(n.peers)
		r.open(now)
		if n.pace > 0 {
			n.dedup, n.dirty = make(map[string]int64), true
			if n.fp.RetransmitAfter > 0 {
				n.heartbeatAt = now + n.fp.RetransmitAfter
			}
		} else if n.leads {
			r.speak()
			// Nobody to hear from, so no message will ever complete a round:
			// the node takes its rounds by itself.
			for n.missing == 0 && !n.out.done {
				n.advance(r, now)
			}
		}
		n.rearm(now)
	case evMessage:
		n.attempt = 0
		n.receive(r, now, ev.msg)
		n.rearm(now)
	case evTimer:
		n.timer(r, now)
	}
	if n.owed && now >= n.computeAt && !n.out.done {
		n.owed = false
		if !n.dirty && n.stable {
			n.skipped++
		} else {
			n.stable, n.dirty = !r.compute(), false
			n.steps++
			n.computeAt = now + n.pace
			n.seq++
			r.speak()
			n.lastSent = now
		}
	}
	n.wakeAt(n.retransmitAt)
	n.wakeAt(n.heartbeatAt)
	if n.owed {
		n.wakeAt(n.computeAt)
	}
	return &n.out
}

// rearm restarts the round protocol's retransmission window.
func (n *peer) rearm(now time.Duration) {
	if n.pace == 0 && n.fp.RetransmitAfter > 0 {
		n.retransmitAt = now + n.backoff(n.attempt)
	}
}

func (n *peer) receive(r role, now time.Duration, m transport.Message) {
	switch pl := m.Payload.(type) {
	case wire.Stop:
		// A zombie coordinator from a fenced-off generation cannot halt this
		// node.
		if n.pace == 0 && !n.fenced(pl.Epoch) && pl.AfterRound < n.limit {
			if n.limit = pl.AfterRound; n.round >= n.limit {
				r.close(now)
			}
		}
		return
	case wire.Rejoin:
		if !n.fenced(pl.Epoch) {
			r.rejoined()
		}
		return
	case wire.Fin:
		// A resource finishes in the round this controller is in (it cannot
		// open a round without our latencies): a stop we missed ends it here.
		if n.pace == 0 && !n.leads && slices.Contains(n.peers, m.From) {
			n.limit = n.round
			r.close(now)
		}
		return
	}
	k, round, seq, ok := r.read(m.Payload)
	switch {
	case !ok && n.pace > 0:
	case !ok:
		n.failf("unexpected %q message (%T)", m.Kind, m.Payload)
	case n.pace > 0:
		if seq != 0 && seq <= n.dedup[m.From] {
			n.stale() // a duplicate or a reordered-stale delivery
			return
		}
		n.dedup[m.From] = max(seq, n.dedup[m.From])
		n.dirty = r.fold(k, m.Payload, now) || n.dirty
		n.owed = true
	case round < n.round:
		// Stale: that peer has not seen our current output (lost, or this is
		// a duplicate delivery). Re-send it directly; the fold it triggers
		// is idempotent.
		n.stale()
		n.resend(r, k)
	case round > n.round:
		n.failf("%s for round %d from %s while in round %d", m.Kind, round, m.From, n.round)
	default:
		r.fold(k, m.Payload, now)
		if !n.got[k] && !n.out.done {
			n.got[k] = true
			if n.missing--; n.missing == 0 {
				n.advance(r, now)
			}
		}
	}
}

// resend re-sends the cached output to peer k, counting it if there was one.
func (n *peer) resend(r role, k int) {
	if r.again(k) {
		n.retransmit()
	}
}

// advance completes the current round: compute, and either answer it and
// move on (a controller) or move on and open the next (a resource).
func (n *peer) advance(r role, now time.Duration) {
	r.compute()
	if !n.leads {
		r.speak()
	}
	n.round++
	clear(n.got)
	n.missing = len(n.got)
	switch {
	case n.round >= n.limit:
		r.close(now)
	case n.leads:
		r.speak()
	}
}

func (n *peer) timer(r role, now time.Duration) {
	if n.retransmitAt != 0 && now >= n.retransmitAt {
		// Stalled: a peer missed our output, or its answer was lost. Nudge
		// the silent ones with the cached message.
		n.attempt++
		for k := range n.peers {
			if !n.got[k] {
				n.resend(r, k)
			}
		}
		n.rearm(now)
	}
	if n.heartbeatAt != 0 && now >= n.heartbeatAt {
		n.heartbeatAt = now + n.fp.RetransmitAfter
		r.beat(now)
		if n.seq > 0 && now-n.lastSent >= n.fp.RetransmitAfter {
			// Idle: re-advertise the state under a fresh sequence number so
			// peers both see liveness and recover a lost message.
			n.seq++
			n.retransmit()
			for k := range n.peers {
				r.again(k)
			}
			n.lastSent = now
		}
	}
}

package dist

import (
	"slices"
	"time"

	"lla/internal/transport"
	"lla/internal/wire"
)

// The peer protocol (DESIGN.md §7). A resource and a controller are the
// same machine with different roles: each waits for an input from every
// peer (a resource's peers are the controllers of the tasks running on it, a
// controller's the resources its subtasks use), computes (a price from
// latencies, latencies from prices), and tells every peer the result. peer
// is that machine; a role supplies what an input means, what to compute and
// what to say.
//
// The protocol is round-synchronized and needs no acknowledgements: folds
// are idempotent and a round gates on content-completeness. A stalled node
// re-sends its last output to the silent peers, backing off from
// RetransmitAfter to RetransmitMax, and a message from a past round gets the
// cached counterpart re-sent. A resource opens round r, a controller answers
// it, and neither can complete a round the other has not, so no message is
// from a future round and the recovered run is bitwise the loss-free one.

// role is what distinguishes a resource from a controller inside the peer
// protocol. A role embeds the peer it plays on and reads its round and epoch
// when it builds a message.
type role interface {
	// read identifies one of the role's inputs: the peer it comes from and
	// the round it is for.
	read(payload any) (k, round int, ok bool)
	// fold applies peer k's input.
	fold(k int, payload any)
	// compute updates the role's state from the round's inputs.
	compute()
	// speak sends the freshly computed output to every peer, and caches it.
	speak()
	// again re-sends the cached output to peer k; false if there is none yet.
	again(k int) bool
	// close ends the node after its last round.
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

	// Round state: got marks the peers whose current-round input is folded,
	// missing counts the rest.
	round, limit, attempt int
	got                   []bool
	missing               int
	retransmitAt          time.Duration
}

func (n *peer) ids() (int, uint64, string) { return n.round, n.epoch, n.addr }

// tell sends one of the node's own messages to peer k.
func (n *peer) tell(k int, payload any) {
	n.send(n.peers[k], n.kind, payload, true)
}

// run is the peer protocol: one step of the node playing role r.
func (n *peer) run(r role, now time.Duration, ev event) *effects {
	n.begin()
	switch ev.kind {
	case evStop:
		n.finish(nil)
	case evClosed:
		n.failf("endpoint closed mid-protocol")
	case evStart:
		n.got, n.missing = make([]bool, len(n.peers)), len(n.peers)
		if n.leads {
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
	n.wakeAt(n.retransmitAt)
	return &n.out
}

// rearm restarts the retransmission window.
func (n *peer) rearm(now time.Duration) {
	if n.fp.RetransmitAfter > 0 {
		n.retransmitAt = now + n.backoff(n.attempt)
	}
}

func (n *peer) receive(r role, now time.Duration, m transport.Message) {
	switch pl := m.Payload.(type) {
	case wire.Stop:
		// A zombie coordinator from a fenced-off generation cannot halt this
		// node.
		if !n.fenced(pl.Epoch) && pl.AfterRound < n.limit {
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
		if !n.leads && slices.Contains(n.peers, m.From) {
			n.limit = n.round
			r.close(now)
		}
		return
	}
	k, round, ok := r.read(m.Payload)
	switch {
	case !ok:
		n.failf("unexpected %q message (%T)", m.Kind, m.Payload)
	case round < n.round:
		// Stale: that peer has not seen our current output (lost, or this is
		// a duplicate delivery). Re-send it directly; the fold it triggers
		// is idempotent.
		n.stale()
		n.resend(r, k)
	case round > n.round:
		n.failf("%s for round %d from %s while in round %d", m.Kind, round, m.From, n.round)
	default:
		r.fold(k, m.Payload)
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

// timer fires when the node has stalled: a peer missed our output, or its
// answer was lost. Nudge the silent ones with the cached message.
func (n *peer) timer(r role, now time.Duration) {
	if n.retransmitAt == 0 || now < n.retransmitAt {
		return
	}
	n.attempt++
	for k := range n.peers {
		if !n.got[k] {
			n.resend(r, k)
		}
	}
	n.rearm(now)
}

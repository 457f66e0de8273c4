package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"lla/internal/obs"
	"lla/internal/sim"
	"lla/internal/transport"
	"lla/internal/wire"
)

// simHop is the latency of every virtual delivery before any injected delay:
// a round takes time even on a fault-free virtual network, so timers, leases
// and crash windows land inside a run, not after an instantaneous one.
// simHorizon bounds a run in virtual time: a protocol not finished by then is reported as stalled instead of retransmitting forever.
const (
	simHop     = 250 * time.Microsecond
	simHorizon = 10 * time.Minute
)

// Sim is the virtual driver: the network and clock of a NewSim runtime. One
// goroutine pops a seeded event heap (sim.Clock); a send becomes a delivery
// event at now + simHop + the delay its embedded transport.Faults plans —
// after its loss, duplication, reordering, crash and partition decisions —
// and every delivery round-trips through the wire codec. Retransmission
// jitter draws from the same seeded stream, so a run is a pure function of
// its ChaosConfig, and costs only its compute.
//
// Crash, Restart and Partition (promoted from Faults) act at once; At
// schedules them, or anything else, in virtual time. A Sim runs once.
type Sim struct {
	*transport.Faults
	// Log, when set before the run, receives one line per event stepped:
	// virtual time, node, event kind, sender and payload.
	Log io.Writer

	clock sim.Clock
	now   time.Duration
	codec transport.Codec
	nodes map[string]*simNode
	coord *simNode
	live  int // resource and controller nodes still running
	err   error
	obsv  *obs.Observer
	rd    bytes.Reader
	br    bufio.Reader
}

// simNode is a machine on the virtual network.
type simNode struct {
	m    machine
	addr string
	// wake is the machine's current deadline, armed the time of the timer
	// event queued for it (0: none).
	wake, armed time.Duration
	done        bool
}

// At schedules fn at virtual time at (from the start of the run).
func (s *Sim) At(at time.Duration, fn func()) {
	s.clock.At(float64(at)/float64(time.Millisecond), func() { s.now = at; fn() })
}

// run drives the nodes and the coordinator to completion, then stops
// whatever is still running.
func (s *Sim) run(nodes []machine, coord *coordinator, codec transport.Codec, o *obs.Observer, stop <-chan struct{}) error {
	s.nodes, s.codec, s.obsv = make(map[string]*simNode, len(nodes)+1), codec, o
	order := make([]*simNode, 0, len(nodes)+1)
	add := func(m machine) *simNode {
		_, _, addr := m.ids()
		n := &simNode{m: m, addr: addr}
		s.nodes[addr] = n
		order = append(order, n)
		return n
	}
	for _, m := range nodes {
		add(m)
	}
	s.live = len(nodes)
	s.coord = add(coord)
	for _, n := range order {
		s.dispatch(n, event{kind: evStart})
	}
	for s.live > 0 && s.err == nil && s.now < simHorizon && !transport.Stopped(stop) && s.clock.Step() {
	}
	if s.live > 0 && s.err == nil && !transport.Stopped(stop) {
		s.err = fmt.Errorf("dist: virtual run stalled at %v with %d nodes unfinished", s.now, s.live)
	}
	for _, n := range order {
		if n != s.coord {
			s.dispatch(n, event{kind: evStop})
		}
	}
	s.dispatch(s.coord, event{kind: evClosed})
	return s.err
}

// dispatch steps one node and enacts the effects.
func (s *Sim) dispatch(n *simNode, ev event) {
	if n.done {
		return
	}
	if s.Log != nil {
		fmt.Fprintf(s.Log, "%d %s %s %s %v\n", s.now, n.addr, ev.kind, ev.msg.From, ev.msg.Payload)
	}
	eff := n.m.step(s.now, ev)
	publish(s.obsv, n.m, eff, int64(s.now))
	for i := range eff.sends {
		s.deliver(n.addr, &eff.sends[i])
	}
	if eff.done {
		n.done = true
		if n != s.coord {
			s.live--
		}
		if eff.err != nil && s.err == nil {
			s.err = eff.err
		}
		return
	}
	// The timer is lazy, as the real driver's is: a machine moves its wake on
	// almost every message, so only a wake earlier than the event already
	// queued for the node queues another; a queued event that comes up early
	// re-queues itself for the wake then current.
	if n.wake = eff.wake; n.wake != 0 && (n.armed == 0 || n.wake < n.armed) {
		s.arm(n, n.wake)
	}
}

// arm queues the node's timer event for at.
func (s *Sim) arm(n *simNode, at time.Duration) {
	n.armed = at
	s.At(max(at, s.now), func() {
		if n.armed != at {
			return // superseded by an earlier one
		}
		n.armed = 0
		switch {
		case n.wake == 0:
		case n.wake > s.now:
			s.arm(n, n.wake)
		default:
			n.wake = 0
			s.dispatch(n, event{kind: evTimer})
		}
	})
}

// deliver plans one send's fate and schedules the copies that survive.
func (s *Sim) deliver(from string, m *send) {
	dst, to := s.nodes[m.to], m.to
	if dst == nil || s.Blocked(from, to) {
		return
	}
	copies, delay := s.Plan()
	if copies == 0 {
		return
	}
	msg, err := wire.NewMessage(from, to, m.kind, m.payload)
	if err == nil {
		var frame []byte
		if frame, err = s.codec.Encode(msg); err == nil {
			s.rd.Reset(frame)
			s.br.Reset(&s.rd)
			msg, err = s.codec.Read(&s.br)
		}
	}
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("dist: %s: wire round trip: %w", from, err)
		}
		return
	}
	for ; copies > 0; copies-- {
		s.At(s.now+simHop+delay, func() {
			// Crashed or partitioned away by the time it lands: blackholed.
			if s.err == nil && !s.Blocked(from, to) {
				s.dispatch(dst, event{kind: evMessage, msg: msg})
			}
		})
	}
}

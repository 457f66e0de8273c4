package dist

import (
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/wire"
)

// subKey names one subtask of one task, as a ShareReport does.
type subKey struct{ task, sub string }

// resourceNode is the machine of one resource's price agent (Section 4.3):
// the peer protocol in the resource role. Each round it gathers the fresh
// latencies of every subtask on the resource, moves the price mu by the
// configured dynamics, and multicasts it (with the congestion flag for the
// adaptive heuristic) to the controllers of the tasks running here — its
// peers, in order of first use. The dynamics are coordinate-separable, so the
// node's own 1-coordinate instance steps exactly as the engine's does.
type resourceNode struct {
	peer
	p   *core.Problem
	r   *core.ProblemResource
	mu  float64
	dyn *price.Dynamics
	// ctlIdx resolves a task name to its controller's entry in peers.
	ctlIdx map[string]int
	// subIdx maps a subtask hosted here to its global index (an entry of the
	// resource's Subs); lat holds the latest latency of each.
	subIdx map[subKey]int32
	lat    map[int32]float64
	// rm carries the per-resource gauges; nil unless observed.
	rm *obs.ResourceMetrics

	// congested is the flag of the latest update and excess its capacity
	// excess. last caches the latest full broadcast (none yet while its
	// Resource is empty) for retransmission, stale recovery and heartbeats —
	// recovery always re-sends by value, never a marker. prev is the previous
	// round's payload, the delta codec's reference.
	congested bool
	excess    float64
	last      wire.PriceUpdate
	prev      wire.PriceUpdate
	prevSet   bool
}

// newResourceNode builds the machine of resource ri.
func newResourceNode(p *core.Problem, ri int, cfg core.Config, a addresses) *resourceNode {
	n := &resourceNode{
		peer:   peer{node: node{addr: a.res[ri]}, kind: wire.KindPrice, leads: true},
		p:      p,
		r:      &p.Resources[ri],
		mu:     core.InitialMu,
		dyn:    cfg.NewDynamics(),
		ctlIdx: make(map[string]int),
		subIdx: make(map[subKey]int32),
		lat:    make(map[int32]float64),
	}
	for _, sub := range p.Resources[ri].Subs {
		ti, si := p.SubtaskAt(sub)
		tn := p.Tasks[ti].Name
		if _, seen := n.ctlIdx[tn]; !seen {
			n.ctlIdx[tn] = len(n.peers)
			n.peers = append(n.peers, a.ctl[ti])
		}
		n.subIdx[subKey{tn, p.Tasks[ti].SubtaskNames[si]}] = sub
	}
	n.dyn.Reset(1)
	return n
}

// observe attaches the node's live counters and gauges to o's registry, or
// detaches them when there is none.
func (n *resourceNode) observe(o *obs.Observer) {
	n.m, n.rm = metricsFor(o), nil
	if o != nil && o.Metrics != nil {
		n.rm = obs.NewResourceMetrics(o.Metrics, n.r.ID)
	}
}

func (n *resourceNode) step(now time.Duration, ev event) *effects { return n.run(n, now, ev) }

// open seeds an asynchronous run: every latency is the fair split until its
// subtask is first reported, and the first price goes out at once.
func (n *resourceNode) open(time.Duration) {
	if n.pace == 0 {
		return
	}
	r := n.r
	fair := r.Availability / float64(len(r.Subs))
	for _, sub := range r.Subs {
		n.lat[sub] = n.p.Share(n.p.SubtaskAt(sub)).LatencyFor(fair)
	}
	n.owed = true
}

func (n *resourceNode) read(payload any) (k, round int, seq int64, ok bool) {
	lm, isReport := payload.(wire.ShareReport)
	if isReport {
		k, ok = n.ctlIdx[lm.Task]
	}
	return k, lm.Round, lm.Seq, ok
}

// fold writes a report's latencies; a delta marker carries none — the values
// of the previous round stand.
func (n *resourceNode) fold(_ int, payload any, _ time.Duration) (changed bool) {
	lm := payload.(wire.ShareReport)
	for j, sn := range lm.Subs {
		sub, hosted := n.subIdx[subKey{lm.Task, sn}]
		if !hosted {
			n.failf("unknown subtask %s/%s", lm.Task, sn)
			return false
		}
		if v := lm.LatMs[j]; n.lat[sub] != v {
			n.lat[sub], changed = v, true
		}
	}
	return changed
}

// compute moves the price from the latencies in hand, reducing demand and
// interior shares over the resource's subtasks as the engine's resource phase
// does — its order, inputs and arithmetic, hence its bits. moved (price or
// solver state) is the fixed-point signal the async sparse path uses.
func (n *resourceNode) compute() (moved bool) {
	r, sum, inner := n.r, 0.0, 0.0
	for _, sub := range r.Subs {
		lat := n.lat[sub]
		s := n.p.ShareAt(sub, lat)
		sum += s
		if n.p.Interior(sub, lat) {
			inner += s
		}
	}
	n.congested = r.Congested(sum)
	n.excess = max(sum-r.Availability, 0)
	n.mu, moved = n.dyn.StepAt(0, n.mu, sum, r.Availability, core.Curvature(inner, n.mu), n.congested)
	if n.rm != nil {
		n.rm.ShareSum.Set(sum)
		n.rm.Availability.Set(r.Availability)
		n.rm.Utilization.Set(sum / r.Availability)
		n.rm.Price.Set(n.mu)
	}
	return moved
}

// speak multicasts the current price. In the round protocol a payload
// bitwise unchanged from the previous round goes out as a delta marker
// (wire/frames.go) instead, except on keyframe rounds.
func (n *resourceNode) speak() {
	n.last = wire.PriceUpdate{Round: n.round, Seq: n.seq, Epoch: n.epoch, Resource: n.r.ID, Mu: n.mu, Excess: n.excess, Congested: n.congested}
	out := n.last
	if n.pace == 0 {
		if n.prevSet && n.round%deltaKeyframeInterval != 0 && out.Mu == n.prev.Mu && out.Excess == n.prev.Excess && out.Congested == n.prev.Congested {
			out = wire.PriceUpdate{Round: n.round, Epoch: n.epoch, Resource: out.Resource, Delta: true}
			fanout := int64(len(n.peers))
			n.suppressed(fanout, fanout*wire.DeltaBytesSaved(n.last))
		}
		n.prev, n.prevSet = n.last, true
	}
	for k := range n.peers {
		n.tell(k, out)
	}
}

func (n *resourceNode) again(k int) bool {
	if n.last.Resource == "" {
		return false
	}
	n.last.Seq = n.seq
	n.tell(k, n.last)
	return true
}

func (n *resourceNode) beat(time.Duration) {}
func (n *resourceNode) rejoined()          {}

// close ends the node: it tells the controllers this resource has completed
// its final round so they can stop lingering on its behalf. The fin is
// repeated a few times when fault tolerance is on (it is the one message
// with no sender left to retransmit it); a surviving copy short-circuits the
// controller's quiet timeout, and losing all copies only costs that timeout.
//
// Only the first copy's send must succeed. A controller leaves linger and
// closes its endpoint as soon as one fin from each of its resources is in,
// so a repeat can find it gone — which is what a fin is for, not a failure.
func (n *resourceNode) close(time.Duration) {
	copies := 1
	if n.fp.RetransmitAfter > 0 {
		copies = 3
	}
	msg := wire.Fin{Resource: n.r.ID}
	for i := 0; i < copies; i++ {
		for _, addr := range n.peers {
			n.send(addr, wire.KindFin, msg, i == 0)
		}
	}
	n.finish(nil)
}

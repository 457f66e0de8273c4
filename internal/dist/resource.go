package dist

import (
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/wire"
)

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
	// ctlIdx resolves a task name to its controller's entry in peers. A task
	// runs one subtask here, so peers[k] is the controller of the k-th entry
	// of the resource's Subs, whose name is names[k] and latest latency lat[k].
	ctlIdx map[string]int
	names  []string
	lat    []float64
	// rm carries the per-resource gauges; nil unless observed.
	rm *obs.ResourceMetrics

	// congested is the flag of the latest update and excess its capacity
	// excess. last caches the latest full broadcast (none yet while its
	// Resource is empty) for retransmission and stale recovery — recovery
	// always re-sends by value, never a marker. Until the next speak it is
	// also the delta codec's reference.
	congested bool
	excess    float64
	last      wire.PriceUpdate
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
		lat:    make([]float64, len(p.Resources[ri].Subs)),
	}
	for k, sub := range p.Resources[ri].Subs {
		ti, si := p.SubtaskAt(sub)
		t := p.Workload().Tasks[ti]
		n.ctlIdx[t.Name], n.names = k, append(n.names, t.Subtasks[si].Name)
		n.peers = append(n.peers, a.ctl[ti])
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

func (n *resourceNode) read(payload any) (k, round int, ok bool) {
	lm, isReport := payload.(wire.ShareReport)
	if isReport {
		k, ok = n.ctlIdx[lm.Task]
	}
	return k, lm.Round, ok
}

// fold writes a report's latencies; a delta marker carries none — the values
// of the previous round stand.
func (n *resourceNode) fold(k int, payload any) {
	lm := payload.(wire.ShareReport)
	for j, sn := range lm.Subs {
		if sn != n.names[k] {
			n.failf("unknown subtask %s/%s", lm.Task, sn)
			return
		}
		n.lat[k] = lm.LatMs[j]
	}
}

// compute moves the price from the latencies in hand, reducing demand and
// interior shares over the resource's subtasks as the engine's resource phase
// does — its order, inputs and arithmetic, hence its bits.
func (n *resourceNode) compute() {
	r, sum, inner := n.r, 0.0, 0.0
	for k, sub := range r.Subs {
		lat := n.lat[k]
		s := n.p.ShareAt(sub, lat)
		sum += s
		if n.p.Interior(sub, lat) {
			inner += s
		}
	}
	n.congested = r.Congested(sum)
	n.excess = max(sum-r.Availability, 0)
	n.mu, _ = n.dyn.StepAt(0, n.mu, sum, r.Availability, core.Curvature(inner, n.mu), n.congested)
	if n.rm != nil {
		n.rm.ShareSum.Set(sum)
		n.rm.Availability.Set(r.Availability)
		n.rm.Utilization.Set(sum / r.Availability)
		n.rm.Price.Set(n.mu)
	}
}

// speak multicasts the current price. A payload bitwise unchanged from the
// previous round goes out as a delta marker (wire/frames.go) instead, except
// on keyframe rounds.
func (n *resourceNode) speak() {
	prev := n.last
	n.last = wire.PriceUpdate{Round: n.round, Epoch: n.epoch, Resource: n.r.ID, Mu: n.mu, Excess: n.excess, Congested: n.congested}
	out := n.last
	if prev.Resource != "" && n.round%deltaKeyframeInterval != 0 && out.Mu == prev.Mu && out.Excess == prev.Excess && out.Congested == prev.Congested {
		out = wire.PriceUpdate{Round: n.round, Epoch: n.epoch, Resource: out.Resource, Delta: true}
		fanout := int64(len(n.peers))
		n.suppressed(fanout, fanout*wire.DeltaBytesSaved(n.last, nil))
	}
	for k := range n.peers {
		n.tell(k, out)
	}
}

func (n *resourceNode) again(k int) bool {
	if n.last.Resource == "" {
		return false
	}
	n.tell(k, n.last)
	return true
}

func (n *resourceNode) rejoined() {}

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

package dist

import (
	"fmt"
	"sort"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/wire"
)

// Reliable round protocol. The synchronized protocol survives message loss,
// duplication, and reordering without acknowledgements because its folds are
// idempotent and each round gates on content-completeness, not delivery
// order. Two mechanisms recover lost messages:
//
//   - Sender-side: a node stalled waiting for its current round's inputs
//     re-sends its last output after RetransmitAfter, backing off
//     exponentially (with jitter) up to RetransmitMax.
//   - Receiver-side: a message from a past round means its sender missed our
//     latest output, so we re-send the cached counterpart directly to that
//     peer (and count the rejection).
//
// Round numbering keeps recovery well-founded: a controller is never more
// than one round ahead of any resource it uses, and never behind one, so the
// cached message is always exactly what the stuck peer is waiting for. The
// recovered run is bitwise identical to a loss-free run.

// deltaKeyframeInterval is the period of forced full-payload broadcasts of
// the delta codec (wire/frames.go): rounds divisible by it never use delta
// markers, bounding how long any recovery path can go without seeing a
// payload by value.
const deltaKeyframeInterval = 16

// subKey names one subtask of one task, as a ShareReport does.
type subKey struct{ task, sub string }

// resourceNode hosts one resource's price agent (Section 4.3). Each round it
// gathers the fresh latencies of every subtask on the resource, updates the
// price by gradient projection, and multicasts the new price (with the
// congestion flag for the adaptive heuristic) to the controllers of the
// tasks running here.
type resourceNode struct {
	p     *core.Problem
	ri    int
	agent *resourcePrice
	ep    transport.Endpoint
	// controllers are the task names with subtasks on this resource.
	controllers []string
	ctlSet      map[string]bool
	// subIdx maps a subtask hosted here to its global index (an entry of the
	// resource's Subs).
	subIdx map[subKey]int32
	// lat holds the latest latency of each subtask on this resource.
	lat map[int32]float64

	// fp and stop are installed by the runtime before run.
	fp   FaultPolicy
	stop <-chan struct{}
	// lastPrice caches the latest full broadcast for retransmission and
	// stale recovery — recovery always re-sends by value, never a marker.
	lastPrice wire.PriceUpdate
	// prevMu/prevCong hold the previous round's broadcast payload (the
	// delta codec's reference); prevValid gates the first round.
	prevMu    float64
	prevCong  bool
	prevValid bool
	// epoch is the coordinator generation this node has adopted, learned
	// from rejoin broadcasts and stop frames (monotone max). Stale-epoch
	// coordinator control frames are fenced and counted in fencedEpoch.
	epoch       uint64
	fencedEpoch int64
	nodeCounters
	// rm carries the per-resource gauges; nil unless observability is
	// attached before run.
	rm *obs.ResourceMetrics
	// liveMu mirrors the agent's price after every completed round. Unlike
	// rm it is always on: the coordinator reads it (atomically, from its own
	// goroutine) to answer admission queries against fresh prices.
	liveMu obs.Gauge
}

// newResourceNode wires a resource agent to an endpoint.
func newResourceNode(p *core.Problem, ri int, cfg core.Config, ep transport.Endpoint) *resourceNode {
	agent := newResourcePrice(p, ri, cfg)
	n := &resourceNode{
		p:      p,
		ri:     ri,
		agent:  agent,
		ep:     ep,
		ctlSet: make(map[string]bool),
		subIdx: make(map[subKey]int32),
		lat:    make(map[int32]float64),
	}
	for _, sub := range p.Resources[ri].Subs {
		ti, si := p.SubtaskAt(sub)
		tn := p.Tasks[ti].Name
		if !n.ctlSet[tn] {
			n.ctlSet[tn] = true
			n.controllers = append(n.controllers, tn)
		}
		n.subIdx[subKey{tn, p.Tasks[ti].SubtaskNames[si]}] = sub
	}
	n.liveMu.Set(agent.mu)
	return n
}

// nodeCounters are one node's fault-recovery and delta-codec totals: read by
// the runtime after the node goroutine joins, and mirrored live on the
// metrics registry observe attached (nil handles, the default, are no-ops).
type nodeCounters struct {
	// retransmits counts messages re-sent (sender-side timeouts and
	// receiver-side stale recovery), rejectedStale messages received from a
	// completed round; deltaSuppressed counts delta-encoded sends and
	// deltaBytesSaved the frame bytes those markers kept off the wire
	// (wire.DeltaBytesSaved).
	retransmits, rejectedStale, deltaSuppressed, deltaBytesSaved     int64
	mRetransmits, mRejectedStale, mDeltaSuppressed, mDeltaBytesSaved *obs.Counter
}

// observe attaches the live mirrors to o's registry, or detaches them when
// there is none. Call before run.
func (c *nodeCounters) observe(o *obs.Observer) {
	dm, sm := &obs.DistMetrics{}, &obs.SparseMetrics{}
	if o != nil && o.Metrics != nil {
		dm, sm = obs.NewDistMetrics(o.Metrics), obs.NewSparseMetrics(o.Metrics)
	}
	c.mRetransmits, c.mRejectedStale = dm.Retransmits, dm.RejectedStale
	c.mDeltaSuppressed, c.mDeltaBytesSaved = sm.DeltaBroadcasts, sm.DeltaBytesSaved
}

func (c *nodeCounters) retransmit() {
	c.retransmits++
	c.mRetransmits.Inc()
}

func (c *nodeCounters) stale() {
	c.rejectedStale++
	c.mRejectedStale.Inc()
}

// suppressed counts n delta markers that saved the given bytes in all.
func (c *nodeCounters) suppressed(n, saved int64) {
	c.deltaSuppressed += n
	c.deltaBytesSaved += saved
	c.mDeltaSuppressed.Add(n)
	c.mDeltaBytesSaved.Add(saved)
}

// addTo folds the totals into a run's result.
func (c *nodeCounters) addTo(res *Result) {
	res.Retransmits += c.retransmits
	res.RejectedStale += c.rejectedStale
	res.DeltaSuppressed += c.deltaSuppressed
	res.DeltaBytesSaved += c.deltaBytesSaved
}

// observe attaches the node's live counters and gauges to o's registry, or
// detaches them when there is none. Call before run.
func (n *resourceNode) observe(o *obs.Observer) {
	n.nodeCounters.observe(o)
	n.rm = nil
	if o != nil && o.Metrics != nil {
		n.rm = obs.NewResourceMetrics(o.Metrics, n.p.Resources[n.ri].ID)
	}
}

// broadcastPrice sends the current price to every interested controller and
// caches the full message for retransmission. When the payload is bitwise
// unchanged from the previous round, a delta marker (wire/frames.go) goes on
// the wire instead, except on keyframe rounds.
func (n *resourceNode) broadcastPrice(round int, congested bool) error {
	msg := wire.PriceUpdate{
		Round:     round,
		Epoch:     n.epoch,
		Resource:  n.p.Resources[n.ri].ID,
		Mu:        n.agent.mu,
		Congested: congested,
	}
	n.lastPrice = msg
	out := msg
	if n.prevValid && round%deltaKeyframeInterval != 0 &&
		msg.Mu == n.prevMu && msg.Congested == n.prevCong {
		out = wire.PriceUpdate{Round: round, Epoch: n.epoch, Resource: msg.Resource, Delta: true}
		fanout := int64(len(n.controllers))
		n.suppressed(fanout, fanout*wire.DeltaBytesSaved(msg))
	}
	n.prevMu, n.prevCong, n.prevValid = msg.Mu, msg.Congested, true
	for _, tn := range n.controllers {
		if err := n.ep.Send(controllerAddr(tn), wire.KindPrice, out); err != nil {
			return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
		}
	}
	return nil
}

// rebroadcast re-sends the cached price to the controllers whose latencies
// for the current round are still missing.
func (n *resourceNode) rebroadcast(got map[string]bool) error {
	for _, tn := range n.controllers {
		if got[tn] {
			continue
		}
		n.retransmit()
		if err := n.ep.Send(controllerAddr(tn), wire.KindPrice, n.lastPrice); err != nil {
			return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
		}
	}
	return nil
}

// recv blocks for the next message, a retransmission timeout (attempt sizes
// the backoff), or a stop request. timedOut distinguishes the timeout case;
// stopped reports a graceful-stop request.
func recv(ep transport.Endpoint, stop <-chan struct{}, fp FaultPolicy, attempt int) (m transport.Message, ok, timedOut, stopped bool) {
	if fp.RetransmitAfter <= 0 {
		select {
		case m, ok = <-ep.Recv():
			return m, ok, false, false
		case <-stop:
			return m, false, false, true
		}
	}
	timer := time.NewTimer(transport.Backoff(attempt, fp.RetransmitAfter, fp.RetransmitMax))
	defer timer.Stop()
	select {
	case m, ok = <-ep.Recv():
		return m, ok, false, false
	case <-timer.C:
		return m, false, true, false
	case <-stop:
		return m, false, false, true
	}
}

// run executes the node until maxRounds latency rounds are processed, a stop
// message lowers the limit, or the runtime requests a shutdown. It returns
// the first protocol error.
func (n *resourceNode) run(maxRounds int) error {
	if err := n.broadcastPrice(0, false); err != nil {
		return err
	}
	limit := maxRounds
	round := 0
	attempt := 0
	// pending buffers latency messages by round (delayed transports may
	// reorder across rounds).
	pending := make(map[int][]wire.ShareReport)
	got := make(map[string]bool)

	for round < limit {
		m, ok, timedOut, stopped := recv(n.ep, n.stop, n.fp, attempt)
		if stopped {
			return nil
		}
		if timedOut {
			// Stalled: a controller missed our price, or its latencies were
			// lost. Nudge the silent ones with the cached price.
			attempt++
			if err := n.rebroadcast(got); err != nil {
				return err
			}
			continue
		}
		if !ok {
			if stopRequested(n.stop) {
				return nil
			}
			return fmt.Errorf("dist: resource %s: endpoint closed mid-protocol", n.p.Resources[n.ri].ID)
		}
		attempt = 0
		switch pl := m.Payload.(type) {
		case wire.ShareReport:
			if pl.Round < round {
				// Stale: that controller has not seen our current price
				// (lost, or this is a duplicate delivery). Re-send it
				// directly; the fold it triggers is idempotent.
				n.stale()
				if n.ctlSet[pl.Task] {
					n.retransmit()
					if err := n.ep.Send(controllerAddr(pl.Task), wire.KindPrice, n.lastPrice); err != nil {
						return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
					}
				}
				continue
			}
			pending[pl.Round] = append(pending[pl.Round], pl)
		case wire.Stop:
			if pl.Epoch < n.epoch {
				// A zombie coordinator from a fenced-off generation cannot
				// halt this node.
				n.fencedEpoch++
				continue
			}
			n.epoch = pl.Epoch
			if pl.AfterRound < limit {
				limit = pl.AfterRound
			}
			continue
		case wire.Rejoin:
			if pl.Epoch < n.epoch {
				n.fencedEpoch++
			} else {
				n.epoch = pl.Epoch
			}
			continue
		default:
			return fmt.Errorf("dist: resource %s: unexpected %q message (%T)", n.p.Resources[n.ri].ID, m.Kind, m.Payload)
		}

		// Fold in everything buffered for the current round.
		for _, lm := range pending[round] {
			for j, sn := range lm.Subs {
				sub, ok := n.subIdx[subKey{lm.Task, sn}]
				if !ok {
					return fmt.Errorf("dist: resource %s: unknown subtask %s/%s", n.p.Resources[n.ri].ID, lm.Task, sn)
				}
				n.lat[sub] = lm.LatMs[j]
			}
			got[lm.Task] = true
		}
		delete(pending, round)
		if len(got) < len(n.controllers) {
			continue // round incomplete
		}

		// Round complete: price computation (Equation 8, or the configured
		// accelerated dynamics).
		sum := 0.0
		for _, sub := range n.agent.r.Subs {
			sum += n.p.ShareAt(sub, n.lat[sub])
		}
		n.agent.update(n.p, n.lat, sum)
		n.liveMu.Set(n.agent.mu)
		if n.rm != nil {
			avail := n.p.Resources[n.ri].Availability
			n.rm.ShareSum.Set(sum)
			n.rm.Availability.Set(avail)
			n.rm.Utilization.Set(sum / avail)
			n.rm.Price.Set(n.agent.mu)
		}
		round++
		got = make(map[string]bool)
		if round < limit {
			if err := n.broadcastPrice(round, n.agent.r.Congested(sum)); err != nil {
				return err
			}
		}
	}
	return n.sendFins()
}

// sendFins tells the controllers this resource has completed its final round
// so they can stop lingering on its behalf. The fin is repeated a few times
// when fault tolerance is on (it is the one message with no sender left to
// retransmit it); a surviving copy short-circuits the controller's quiet
// timeout, and losing all copies only costs that timeout.
//
// Only the first copy's send must succeed. A controller leaves linger and
// closes its endpoint as soon as one fin from each of its resources is in,
// so a repeat can find it gone — which is what a fin is for, not a failure.
// Inproc refuses a closed address at once; over TCP the repeat to an exited
// controller costs SendRetryWindow before it is given up on, and sendFins
// still returns nil.
func (n *resourceNode) sendFins() error {
	copies := 1
	if n.fp.RetransmitAfter > 0 {
		copies = 3
	}
	msg := wire.Fin{Resource: n.p.Resources[n.ri].ID}
	for i := 0; i < copies; i++ {
		for _, tn := range n.controllers {
			if err := n.ep.Send(controllerAddr(tn), wire.KindFin, msg); err != nil && i == 0 {
				return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
			}
		}
	}
	return nil
}

// shareGroup is the part of a task's allocation one resource hears about:
// the subtasks the task runs there, by ascending name — the order a
// wire.ShareReport lists them in.
type shareGroup struct {
	ri   int      // resource index
	subs []string // subtask names, ascending
	si   []int    // their indices in the task, in subs order
}

// shareGroups splits a task's subtasks by resource, resources in order of
// first use. Built once per controller; latencies fills in a round's values.
func shareGroups(pt *core.ProblemTask) []shareGroup {
	var groups []shareGroup
	pos := make(map[int32]int)
	for si, ri := range pt.Res {
		k, ok := pos[ri]
		if !ok {
			k = len(groups)
			pos[ri] = k
			groups = append(groups, shareGroup{ri: int(ri)})
		}
		groups[k].si = append(groups[k].si, si)
	}
	for k := range groups {
		g := &groups[k]
		sort.Slice(g.si, func(a, b int) bool { return pt.SubtaskNames[g.si[a]] < pt.SubtaskNames[g.si[b]] })
		for _, si := range g.si {
			g.subs = append(g.subs, pt.SubtaskNames[si])
		}
	}
	return groups
}

// latencies returns the group's slice of a task's latencies: prev itself when
// every value is unchanged from it (changed=false), a fresh slice otherwise —
// a sent payload is never written again.
func (g *shareGroup) latencies(latMs, prev []float64) (out []float64, changed bool) {
	for j, si := range g.si {
		if prev == nil || prev[j] != latMs[si] {
			changed = true
			break
		}
	}
	if !changed {
		return prev, false
	}
	out = make([]float64, len(g.si))
	for j, si := range g.si {
		out[j] = latMs[si]
	}
	return out, true
}

// controllerNode hosts one task's controller (Section 4.2). Each round it
// waits for the prices of every resource its subtasks use, refreshes path
// prices, re-solves latencies, and sends them to the resources.
type controllerNode struct {
	p    *core.Problem
	ti   int
	ctl  *core.Controller
	ep   transport.Endpoint
	name string
	// groups holds one entry per distinct resource the task uses; groupOf
	// resolves a price message's resource ID to its entry.
	groups  []shareGroup
	groupOf map[string]int
	// reports controls whether per-round utility reports are sent to the
	// coordinator; standalone deployments have no coordinator and disable
	// them.
	reports bool

	// fp and stop are installed by the runtime before run.
	fp   FaultPolicy
	stop <-chan struct{}
	// lastLat[k] caches the latest full latency message for groups[k], for
	// retransmission, stale recovery, and as the delta codec's reference;
	// its LatMs is nil until the first allocation.
	lastLat []wire.ShareReport
	// epoch is the adopted coordinator generation; fencedEpoch counts
	// discarded stale-epoch coordinator control frames (wire/frames.go).
	epoch       uint64
	fencedEpoch int64
	// lastReport caches the most recent utility report so a rejoining
	// coordinator can rebuild its aggregation state; haveReport gates the
	// first round.
	lastReport wire.UtilityReport
	haveReport bool
	// rejoins counts rejoin handshakes this controller answered.
	rejoins int64
	nodeCounters
}

// newControllerNode wires a task controller to an endpoint.
func newControllerNode(p *core.Problem, ti int, ctl *core.Controller, ep transport.Endpoint) *controllerNode {
	n := &controllerNode{
		p:       p,
		ti:      ti,
		ctl:     ctl,
		ep:      ep,
		name:    p.Tasks[ti].Name,
		groups:  shareGroups(&p.Tasks[ti]),
		groupOf: make(map[string]int),
		reports: true,
	}
	n.lastLat = make([]wire.ShareReport, len(n.groups))
	for k := range n.groups {
		n.groupOf[p.Resources[n.groups[k].ri].ID] = k
	}
	return n
}

// sendLatencies distributes the freshly allocated latencies, one message per
// resource in groups order (a fixed order, so a seeded Chaos network draws
// the same fault for the same frame every run), caches the full messages for
// retransmission, and reports utility to the coordinator. A resource whose
// latencies are bitwise unchanged from the previous round gets a coalesced
// marker (wire/frames.go) instead of the payload, except on keyframe rounds.
func (n *controllerNode) sendLatencies(round int) error {
	for k := range n.groups {
		g := &n.groups[k]
		lats, changed := g.latencies(n.ctl.LatMs, n.lastLat[k].LatMs)
		msg := wire.ShareReport{Round: round, Epoch: n.epoch, Task: n.name, Subs: g.subs, LatMs: lats}
		out := msg
		if !changed && round%deltaKeyframeInterval != 0 {
			out = wire.ShareReport{Round: round, Epoch: n.epoch, Task: n.name, Delta: true}
			n.suppressed(1, wire.DeltaBytesSaved(msg))
		}
		n.lastLat[k] = msg
		if err := n.ep.Send(resourceAddr(n.p.Resources[g.ri].ID), wire.KindLatency, out); err != nil {
			return fmt.Errorf("dist: controller %s: %w", n.name, err)
		}
	}
	if !n.reports {
		return nil
	}
	n.lastReport = wire.UtilityReport{
		Round:   round,
		Epoch:   n.epoch,
		Task:    n.name,
		Utility: n.ctl.Utility(),
	}
	n.haveReport = true
	return n.ep.Send(coordinatorAddr, wire.KindReport, n.lastReport)
}

// handleRejoin answers a restarted coordinator: adopt its epoch, acknowledge
// with the last reported round, and re-send the cached report re-stamped with
// the new epoch so the coordinator can resume aggregation. Stale-epoch
// rejoins (a zombie generation) are fenced; duplicate rejoins of the current
// epoch are re-acked (the handshake is idempotent under retries).
func (n *controllerNode) handleRejoin(jm wire.Rejoin) error {
	if jm.Epoch < n.epoch {
		n.fencedEpoch++
		return nil
	}
	n.epoch = jm.Epoch
	n.rejoins++
	ack := wire.RejoinAck{Epoch: n.epoch, Task: n.name, Round: -1}
	if n.haveReport {
		ack.Round = n.lastReport.Round
	}
	if err := n.ep.Send(coordinatorAddr, wire.KindRejoinAck, ack); err != nil {
		return fmt.Errorf("dist: controller %s: %w", n.name, err)
	}
	if n.haveReport && n.reports {
		n.lastReport.Epoch = n.epoch
		if err := n.ep.Send(coordinatorAddr, wire.KindReport, n.lastReport); err != nil {
			return fmt.Errorf("dist: controller %s: %w", n.name, err)
		}
	}
	return nil
}

// resendLatencies re-sends the cached latencies of the named resource, which
// is stalled on them (its price is stale, or it retransmitted). Before the
// first allocation there is nothing to re-send.
func (n *controllerNode) resendLatencies(resource string) error {
	k, ok := n.groupOf[resource]
	if !ok || n.lastLat[k].LatMs == nil {
		return nil
	}
	n.retransmit()
	if err := n.ep.Send(resourceAddr(resource), wire.KindLatency, n.lastLat[k]); err != nil {
		return fmt.Errorf("dist: controller %s: %w", n.name, err)
	}
	return nil
}

// rebroadcast re-sends the cached latencies to the resources whose prices
// for the current round are still missing; the resources' own
// retransmission covers round 0.
func (n *controllerNode) rebroadcast(got map[string]bool) error {
	for k := range n.groups {
		if id := n.p.Resources[n.groups[k].ri].ID; !got[id] {
			if err := n.resendLatencies(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// run executes the controller until maxRounds allocations are done, a stop
// message lowers the limit, or the runtime requests a shutdown.
func (n *controllerNode) run(maxRounds int) error {
	limit := maxRounds
	round := 0
	attempt := 0
	mu := make([]float64, len(n.p.Resources))
	congested := make([]bool, len(n.p.Resources))
	pending := make(map[int][]wire.PriceUpdate)
	got := make(map[string]bool)

	for round < limit {
		m, ok, timedOut, stopped := recv(n.ep, n.stop, n.fp, attempt)
		if stopped {
			return nil
		}
		if timedOut {
			attempt++
			if err := n.rebroadcast(got); err != nil {
				return err
			}
			continue
		}
		if !ok {
			if stopRequested(n.stop) {
				return nil
			}
			return fmt.Errorf("dist: controller %s: endpoint closed mid-protocol", n.name)
		}
		attempt = 0
		switch pm := m.Payload.(type) {
		case wire.PriceUpdate:
			if pm.Round < round {
				// Stale: the resource has not seen our latest latencies.
				// Re-send the cached message for that resource directly.
				n.stale()
				if err := n.resendLatencies(pm.Resource); err != nil {
					return err
				}
				continue
			}
			pending[pm.Round] = append(pending[pm.Round], pm)
		case wire.Stop:
			if pm.Epoch < n.epoch {
				// Fenced: a zombie coordinator cannot halt this node.
				n.fencedEpoch++
				continue
			}
			n.epoch = pm.Epoch
			if pm.AfterRound < limit {
				limit = pm.AfterRound
			}
			continue
		case wire.Rejoin:
			if err := n.handleRejoin(pm); err != nil {
				return err
			}
			continue
		case wire.Fin:
			// A straggler fin from an earlier run on the same endpoints.
			continue
		default:
			return fmt.Errorf("dist: controller %s: unexpected %q message (%T)", n.name, m.Kind, m.Payload)
		}

		for _, pm := range pending[round] {
			k, ok := n.groupOf[pm.Resource]
			if !ok {
				return fmt.Errorf("dist: controller %s: unknown resource %q", n.name, pm.Resource)
			}
			if !pm.Delta {
				// A delta marker means "same as my previous round": mu and
				// congested already hold exactly that (round gating guarantees
				// the round r−1 fold happened), so only full payloads write.
				mu[n.groups[k].ri] = pm.Mu
				congested[n.groups[k].ri] = pm.Congested
			}
			got[pm.Resource] = true
		}
		delete(pending, round)
		if len(got) < len(n.groups) {
			continue
		}

		// Round complete: latency allocation (Section 4.2).
		n.ctl.Solve(mu, congested)
		if err := n.sendLatencies(round); err != nil {
			return err
		}
		round++
		got = make(map[string]bool)
	}
	return n.linger()
}

// linger keeps the controller responsive after its final allocation: a
// resource whose final-round latencies were lost retransmits its price, and
// nobody but this controller can answer. The controller re-sends the cached
// latencies until every resource has sent its fin, or until the network has
// been quiet long enough that any live resource would have retried
// (retransmission gaps are capped at RetransmitMax).
func (n *controllerNode) linger() error {
	if n.fp.RetransmitAfter <= 0 {
		return nil
	}
	window := n.fp.RetransmitMax
	if window < n.fp.RetransmitAfter {
		window = n.fp.RetransmitAfter
	}
	finned := make(map[string]bool)
	quiet := 0
	for quiet < 6 && len(finned) < len(n.groups) {
		timer := time.NewTimer(window)
		select {
		case m, ok := <-n.ep.Recv():
			timer.Stop()
			if !ok {
				return nil
			}
			switch pm := m.Payload.(type) {
			case wire.Fin:
				finned[pm.Resource] = true
			case wire.Rejoin:
				// A coordinator restarting after this controller's final
				// allocation still gets its ack and last report.
				quiet = 0
				if err := n.handleRejoin(pm); err != nil {
					return err
				}
			case wire.PriceUpdate:
				// The resource is stalled on our final latencies: recover it.
				n.stale()
				quiet = 0
				if err := n.resendLatencies(pm.Resource); err != nil {
					return err
				}
			}
		case <-timer.C:
			quiet++
		case <-n.stop:
			timer.Stop()
			return nil
		}
	}
	return nil
}

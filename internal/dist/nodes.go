package dist

import (
	"fmt"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
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
	// subIdx maps "task name/subtask name" to the subtask's global index
	// (an entry of the resource's Subs).
	subIdx map[string]int32
	// lat holds the latest latency of each subtask on this resource.
	lat map[int32]float64

	// fp and stop are installed by the runtime before run.
	fp   FaultPolicy
	stop <-chan struct{}
	// lastPrice caches the latest full broadcast for retransmission and
	// stale recovery — recovery always re-sends by value, never a marker.
	lastPrice priceMsg
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
	// retransmits and rejectedStale count fault-recovery events; read by the
	// runtime after the node goroutine joins. deltaSuppressed counts
	// delta-encoded broadcasts, deltaBytesSaved the payload bytes those
	// markers kept off the wire.
	retransmits     int64
	rejectedStale   int64
	deltaSuppressed int64
	deltaBytesSaved int64
	// mRetransmits/mRejectedStale mirror the counters live on an attached
	// metrics registry; rm carries the per-resource gauges. All nil (and
	// therefore no-ops) unless observability is attached before run.
	mRetransmits, mRejectedStale       *obs.Counter
	mDeltaSuppressed, mDeltaBytesSaved *obs.Counter
	rm                                 *obs.ResourceMetrics
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
		subIdx: make(map[string]int32),
		lat:    make(map[int32]float64),
	}
	for _, sub := range p.Resources[ri].Subs {
		ti, si := p.SubtaskAt(sub)
		tn := p.Tasks[ti].Name
		if !n.ctlSet[tn] {
			n.ctlSet[tn] = true
			n.controllers = append(n.controllers, tn)
		}
		n.subIdx[tn+"/"+p.Tasks[ti].SubtaskNames[si]] = sub
	}
	n.liveMu.Set(agent.mu)
	return n
}

// broadcastPrice sends the current price to every interested controller and
// caches the full message for retransmission. When the payload is bitwise
// unchanged from the previous round, a delta marker (messages.go) goes on the
// wire instead, except on keyframe rounds.
func (n *resourceNode) broadcastPrice(round int, congested bool) error {
	msg := priceMsg{
		Round:     round,
		Epoch:     n.epoch,
		Resource:  n.p.Resources[n.ri].ID,
		Mu:        n.agent.mu,
		Congested: congested,
	}
	n.lastPrice = msg
	wire := msg
	if n.prevValid && round%deltaKeyframeInterval != 0 &&
		msg.Mu == n.prevMu && msg.Congested == n.prevCong {
		wire = priceMsg{Round: round, Epoch: n.epoch, Resource: msg.Resource, Delta: true}
		saved := encodedBytesSaved(msg, wire) * int64(len(n.controllers))
		n.deltaSuppressed += int64(len(n.controllers))
		n.deltaBytesSaved += saved
		n.mDeltaSuppressed.Add(int64(len(n.controllers)))
		n.mDeltaBytesSaved.Add(saved)
	}
	n.prevMu, n.prevCong, n.prevValid = msg.Mu, msg.Congested, true
	for _, tn := range n.controllers {
		if err := n.ep.Send(controllerAddr(tn), kindPrice, wire); err != nil {
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
		n.retransmits++
		n.mRetransmits.Inc()
		if err := n.ep.Send(controllerAddr(tn), kindPrice, n.lastPrice); err != nil {
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
	pending := make(map[int][]latencyMsg)
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
		switch m.Kind {
		case kindLatency:
			var lm latencyMsg
			if err := m.Decode(&lm); err != nil {
				return err
			}
			if lm.Round < round {
				// Stale: that controller has not seen our current price
				// (lost, or this is a duplicate delivery). Re-send it
				// directly; the fold it triggers is idempotent.
				n.rejectedStale++
				n.mRejectedStale.Inc()
				if n.ctlSet[lm.Task] {
					n.retransmits++
					n.mRetransmits.Inc()
					if err := n.ep.Send(controllerAddr(lm.Task), kindPrice, n.lastPrice); err != nil {
						return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
					}
				}
				continue
			}
			pending[lm.Round] = append(pending[lm.Round], lm)
		case kindStop:
			var sm stopMsg
			if err := m.Decode(&sm); err != nil {
				return err
			}
			if sm.Epoch < n.epoch {
				// A zombie coordinator from a fenced-off generation cannot
				// halt this node.
				n.fencedEpoch++
				continue
			}
			n.epoch = sm.Epoch
			if sm.AfterRound < limit {
				limit = sm.AfterRound
			}
			continue
		case kindRejoin:
			var jm rejoinMsg
			if err := m.Decode(&jm); err != nil {
				return err
			}
			if jm.Epoch < n.epoch {
				n.fencedEpoch++
			} else {
				n.epoch = jm.Epoch
			}
			continue
		default:
			return fmt.Errorf("dist: resource %s: unexpected message kind %q", n.p.Resources[n.ri].ID, m.Kind)
		}

		// Fold in everything buffered for the current round.
		for _, lm := range pending[round] {
			for sn, lat := range lm.LatMs {
				sub, ok := n.subIdx[lm.Task+"/"+sn]
				if !ok {
					return fmt.Errorf("dist: resource %s: unknown subtask %s/%s", n.p.Resources[n.ri].ID, lm.Task, sn)
				}
				n.lat[sub] = lat
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
	msg := finMsg{Resource: n.p.Resources[n.ri].ID}
	for i := 0; i < copies; i++ {
		for _, tn := range n.controllers {
			if err := n.ep.Send(controllerAddr(tn), kindFin, msg); err != nil && i == 0 {
				return fmt.Errorf("dist: resource %s: %w", n.p.Resources[n.ri].ID, err)
			}
		}
	}
	return nil
}

// controllerNode hosts one task's controller (Section 4.2). Each round it
// waits for the prices of every resource its subtasks use, refreshes path
// prices, re-solves latencies, and sends them to the resources.
type controllerNode struct {
	p    *core.Problem
	ti   int
	ctl  *core.Controller
	ep   transport.Endpoint
	res  []int // distinct resource indices used by the task
	name string
	// resByID resolves a price message's resource ID to its index.
	resByID map[string]int
	// reports controls whether per-round utility reports are sent to the
	// coordinator; standalone deployments have no coordinator and disable
	// them.
	reports bool

	// fp and stop are installed by the runtime before run.
	fp   FaultPolicy
	stop <-chan struct{}
	// lastLat caches the latest full latency message per resource for
	// retransmission, stale recovery, and as the delta codec's reference.
	lastLat map[int]latencyMsg
	// epoch is the adopted coordinator generation; fencedEpoch counts
	// discarded stale-epoch coordinator control frames (see messages.go).
	epoch       uint64
	fencedEpoch int64
	// lastReport caches the most recent utility report so a rejoining
	// coordinator can rebuild its aggregation state; haveReport gates the
	// first round.
	lastReport reportMsg
	haveReport bool
	// rejoins counts rejoin handshakes this controller answered.
	rejoins int64
	// retransmits and rejectedStale count fault-recovery events; read by the
	// runtime after the node goroutine joins. deltaSuppressed counts
	// delta-encoded share reports, deltaBytesSaved the bytes they saved.
	retransmits     int64
	rejectedStale   int64
	deltaSuppressed int64
	deltaBytesSaved int64
	// mRetransmits/mRejectedStale mirror the counters live on an attached
	// metrics registry; nil (no-op) unless observability is attached.
	mRetransmits, mRejectedStale       *obs.Counter
	mDeltaSuppressed, mDeltaBytesSaved *obs.Counter
}

// newControllerNode wires a task controller to an endpoint.
func newControllerNode(p *core.Problem, ti int, ctl *core.Controller, ep transport.Endpoint) *controllerNode {
	n := &controllerNode{
		p:       p,
		ti:      ti,
		ctl:     ctl,
		ep:      ep,
		name:    p.Tasks[ti].Name,
		resByID: make(map[string]int, len(p.Resources)),
		reports: true,
		lastLat: make(map[int]latencyMsg),
	}
	for ri := range p.Resources {
		n.resByID[p.Resources[ri].ID] = ri
	}
	seen := make(map[int32]bool)
	for _, ri := range p.Tasks[ti].Res {
		if !seen[ri] {
			seen[ri] = true
			n.res = append(n.res, int(ri))
		}
	}
	return n
}

// sendLatencies distributes the freshly allocated latencies, grouped per
// resource, caches the full messages for retransmission, and reports
// utility to the coordinator. A resource whose latencies are bitwise
// unchanged from the previous round gets a coalesced marker (messages.go)
// instead of the payload, except on keyframe rounds.
func (n *controllerNode) sendLatencies(round int) error {
	pt := &n.p.Tasks[n.ti]
	byRes := make(map[int]map[string]float64, len(n.res))
	for si, ri := range pt.Res {
		m := byRes[int(ri)]
		if m == nil {
			m = make(map[string]float64)
			byRes[int(ri)] = m
		}
		m[pt.SubtaskNames[si]] = n.ctl.LatMs[si]
	}
	for ri, lats := range byRes {
		msg := latencyMsg{Round: round, Epoch: n.epoch, Task: n.name, LatMs: lats}
		wire := msg
		if round%deltaKeyframeInterval != 0 &&
			latMapsEqual(lats, n.lastLat[ri].LatMs) {
			wire = latencyMsg{Round: round, Epoch: n.epoch, Task: n.name, Delta: true}
			saved := encodedBytesSaved(msg, wire)
			n.deltaSuppressed++
			n.deltaBytesSaved += saved
			n.mDeltaSuppressed.Inc()
			n.mDeltaBytesSaved.Add(saved)
		}
		n.lastLat[ri] = msg
		if err := n.ep.Send(resourceAddr(n.p.Resources[ri].ID), kindLatency, wire); err != nil {
			return fmt.Errorf("dist: controller %s: %w", n.name, err)
		}
	}
	if !n.reports {
		return nil
	}
	n.lastReport = reportMsg{
		Round:   round,
		Epoch:   n.epoch,
		Task:    n.name,
		Utility: n.ctl.Utility(),
	}
	n.haveReport = true
	return n.ep.Send(coordinatorAddr, kindReport, n.lastReport)
}

// handleRejoin answers a restarted coordinator: adopt its epoch, acknowledge
// with the last reported round, and re-send the cached report re-stamped with
// the new epoch so the coordinator can resume aggregation. Stale-epoch
// rejoins (a zombie generation) are fenced; duplicate rejoins of the current
// epoch are re-acked (the handshake is idempotent under retries).
func (n *controllerNode) handleRejoin(jm rejoinMsg) error {
	if jm.Epoch < n.epoch {
		n.fencedEpoch++
		return nil
	}
	n.epoch = jm.Epoch
	n.rejoins++
	ack := rejoinAckMsg{Epoch: n.epoch, Task: n.name, Round: -1}
	if n.haveReport {
		ack.Round = n.lastReport.Round
	}
	if err := n.ep.Send(coordinatorAddr, kindRejoinAck, ack); err != nil {
		return fmt.Errorf("dist: controller %s: %w", n.name, err)
	}
	if n.haveReport && n.reports {
		n.lastReport.Epoch = n.epoch
		if err := n.ep.Send(coordinatorAddr, kindReport, n.lastReport); err != nil {
			return fmt.Errorf("dist: controller %s: %w", n.name, err)
		}
	}
	return nil
}

// latMapsEqual compares two latency payloads bitwise. A nil prev (first
// round) never matches.
func latMapsEqual(a, b map[string]float64) bool {
	if b == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// rebroadcast re-sends the cached latencies to the resources whose prices
// for the current round are still missing. Before the first allocation there
// is nothing to re-send; the resources' own retransmission covers round 0.
func (n *controllerNode) rebroadcast(got map[string]bool) error {
	for _, ri := range n.res {
		if got[n.p.Resources[ri].ID] {
			continue
		}
		msg, ok := n.lastLat[ri]
		if !ok {
			continue
		}
		n.retransmits++
		n.mRetransmits.Inc()
		if err := n.ep.Send(resourceAddr(n.p.Resources[ri].ID), kindLatency, msg); err != nil {
			return fmt.Errorf("dist: controller %s: %w", n.name, err)
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
	pending := make(map[int][]priceMsg)
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
		switch m.Kind {
		case kindPrice:
			var pm priceMsg
			if err := m.Decode(&pm); err != nil {
				return err
			}
			if pm.Round < round {
				// Stale: the resource has not seen our latest latencies.
				// Re-send the cached message for that resource directly.
				n.rejectedStale++
				n.mRejectedStale.Inc()
				if ri, ok := n.resByID[pm.Resource]; ok {
					if msg, ok := n.lastLat[ri]; ok {
						n.retransmits++
						n.mRetransmits.Inc()
						if err := n.ep.Send(resourceAddr(pm.Resource), kindLatency, msg); err != nil {
							return fmt.Errorf("dist: controller %s: %w", n.name, err)
						}
					}
				}
				continue
			}
			pending[pm.Round] = append(pending[pm.Round], pm)
		case kindStop:
			var sm stopMsg
			if err := m.Decode(&sm); err != nil {
				return err
			}
			if sm.Epoch < n.epoch {
				// Fenced: a zombie coordinator cannot halt this node.
				n.fencedEpoch++
				continue
			}
			n.epoch = sm.Epoch
			if sm.AfterRound < limit {
				limit = sm.AfterRound
			}
			continue
		case kindRejoin:
			var jm rejoinMsg
			if err := m.Decode(&jm); err != nil {
				return err
			}
			if err := n.handleRejoin(jm); err != nil {
				return err
			}
			continue
		case kindFin:
			// A straggler fin from an earlier run on the same endpoints.
			continue
		default:
			return fmt.Errorf("dist: controller %s: unexpected message kind %q", n.name, m.Kind)
		}

		for _, pm := range pending[round] {
			ri, ok := n.resByID[pm.Resource]
			if !ok {
				return fmt.Errorf("dist: controller %s: unknown resource %q", n.name, pm.Resource)
			}
			if !pm.Delta {
				// A delta marker means "same as my previous round": mu and
				// congested already hold exactly that (round gating guarantees
				// the round r−1 fold happened), so only full payloads write.
				mu[ri] = pm.Mu
				congested[ri] = pm.Congested
			}
			got[pm.Resource] = true
		}
		delete(pending, round)
		if len(got) < len(n.res) {
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
	for quiet < 6 && len(finned) < len(n.res) {
		timer := time.NewTimer(window)
		select {
		case m, ok := <-n.ep.Recv():
			timer.Stop()
			if !ok {
				return nil
			}
			switch m.Kind {
			case kindFin:
				var fm finMsg
				if err := m.Decode(&fm); err == nil {
					finned[fm.Resource] = true
				}
			case kindRejoin:
				// A coordinator restarting after this controller's final
				// allocation still gets its ack and last report.
				var jm rejoinMsg
				if err := m.Decode(&jm); err != nil {
					continue
				}
				quiet = 0
				if err := n.handleRejoin(jm); err != nil {
					return err
				}
			case kindPrice:
				var pm priceMsg
				if err := m.Decode(&pm); err != nil {
					continue
				}
				// The resource is stalled on our final latencies: recover it.
				n.rejectedStale++
				n.mRejectedStale.Inc()
				quiet = 0
				if ri, ok := n.resByID[pm.Resource]; ok {
					if msg, ok := n.lastLat[ri]; ok {
						n.retransmits++
						n.mRetransmits.Inc()
						if err := n.ep.Send(resourceAddr(pm.Resource), kindLatency, msg); err != nil {
							return fmt.Errorf("dist: controller %s: %w", n.name, err)
						}
					}
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

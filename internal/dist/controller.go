package dist

import (
	"math"
	"slices"
	"time"

	"lla/internal/core"
	"lla/internal/wire"
)

// controllerNode is the machine of one task's controller (Section 4.2): the
// peer protocol in the controller role. Each round it waits for the prices of
// every resource its subtasks use — its peers, in order of first use, a
// fixed order, so a seeded fault stream draws the same fault for the same
// frame every run — refreshes path prices, re-solves latencies, and sends
// each resource its share of them.
type controllerNode struct {
	peer
	ctl  *core.Controller
	p    *core.Problem
	ti   int
	name string
	// A checked task runs at most one subtask per resource, so peers[k] hosts
	// subtask k alone, on resource res[k]: its reports list names[k:k+1], and
	// idx[k:k+1] sizes a coalesced one (wire.DeltaBytesSaved). peerOf resolves
	// a price message's resource ID to its k.
	res    []int32
	names  []string
	idx    []int
	peerOf map[string]int
	// reports controls whether per-round utility reports go to the
	// coordinator; standalone deployments have none.
	reports bool
	// mu and congested are the price vector Solve reads, by resource index
	// (one per resource of the problem, each used one starting at
	// core.InitialMu); excess[k] is the capacity excess peers[k]'s latest
	// price carried.
	mu        []float64
	congested []bool
	excess    []float64
	// lastLat[k] caches the latest full latency message for peers[k], for
	// retransmission, stale recovery and as the delta codec's reference; its
	// LatMs is nil until the first allocation.
	lastLat []wire.ShareReport
	// lastReport caches the most recent utility report so a rejoining
	// coordinator can rebuild its aggregation state; haveReport gates the
	// first round. rejoins counts the handshakes answered.
	lastReport wire.UtilityReport
	haveReport bool
	rejoins    int64
	// Linger (after the final allocation): finned marks the resources whose
	// fin is in, quiet counts silent linger windows.
	lingering bool
	finned    []bool
	unfinned  int
	quiet     int
}

// newControllerNode builds the machine of task ti, whose subtasks run on the
// resources res.
func newControllerNode(p *core.Problem, ti int, res []int32, cfg core.Config, a addresses) *controllerNode {
	n := &controllerNode{
		peer:      peer{node: node{addr: a.ctl[ti]}, kind: wire.KindLatency},
		ctl:       core.NewController(p, ti, cfg),
		p:         p,
		ti:        ti,
		name:      p.Workload().Tasks[ti].Name,
		res:       res,
		peerOf:    make(map[string]int),
		reports:   true,
		mu:        make([]float64, len(p.Resources)),
		congested: make([]bool, len(p.Resources)),
	}
	n.lastLat = make([]wire.ShareReport, len(res))
	n.excess = make([]float64, len(res))
	n.peers = make([]string, len(res))
	for k, ri := range res {
		n.names, n.idx = append(n.names, p.Workload().Tasks[ti].Subtasks[k].Name), append(n.idx, k)
		n.peers[k], n.peerOf[p.Resources[ri].ID] = a.res[ri], k
		n.mu[ri] = core.InitialMu
	}
	return n
}

func (n *controllerNode) step(now time.Duration, ev event) *effects {
	if n.lingering {
		return n.linger(now, ev)
	}
	return n.run(n, now, ev)
}

func (n *controllerNode) read(payload any) (k, round int, ok bool) {
	pm, isPrice := payload.(wire.PriceUpdate)
	if isPrice {
		k, ok = n.peerOf[pm.Resource]
	}
	return k, pm.Round, ok
}

// fold takes a price. A delta marker means "same as my previous round": mu
// and congested already hold exactly that (round gating guarantees the round
// r−1 fold happened), so only full payloads write.
func (n *controllerNode) fold(k int, payload any) {
	if pm := payload.(wire.PriceUpdate); !pm.Delta {
		ri := n.res[k]
		n.mu[ri], n.congested[ri], n.excess[k] = pm.Mu, pm.Congested, pm.Excess
	}
}

// compute allocates latencies (Section 4.2). The round's report goes out
// first: the point its prices complete is the one the coordinator grades.
func (n *controllerNode) compute() {
	if n.reports {
		n.report()
	}
	n.ctl.Solve(n.mu, n.congested)
}

// report sends the coordinator this round's utility and the task's part of
// its certificate: the point after the engine's Step n.round (the last
// solve's latencies and path prices, the prices just folded), graded as
// core.Engine.Certify grades it, and the largest excess the prices carried.
func (n *controllerNode) report() {
	var c core.Certificate
	n.p.CertifyTask(n.ti, n.ctl.LatMs, n.ctl.Lambda, n.mu, math.Inf(1), math.Inf(1), &c)
	n.lastReport = wire.UtilityReport{Round: n.round, Epoch: n.epoch, Task: n.name, Utility: n.ctl.Utility(),
		KKTMax: c.KKTMax, PathViolation: c.MaxPathViolationFrac, Excess: slices.Max(n.excess)}
	n.haveReport = true
	// Best-effort: a report the coordinator's full inbox refuses is a lost
	// report (it skips the round), not a reason to stop allocating.
	n.send(coordinatorAddr, wire.KindReport, n.lastReport, false)
}

// speak distributes the freshly allocated latencies, one message per
// resource. A resource whose latency is bitwise unchanged from the previous
// round gets a coalesced marker (wire/frames.go) instead, except on keyframe
// rounds. A sent payload is never written again.
func (n *controllerNode) speak() {
	for k, lat := range n.ctl.LatMs {
		lats := n.lastLat[k].LatMs
		changed := lats == nil || lats[0] != lat
		if changed {
			lats = []float64{lat}
		}
		msg := wire.ShareReport{Round: n.round, Epoch: n.epoch, Task: n.name, Subs: n.names[k : k+1], LatMs: lats}
		n.lastLat[k] = msg
		if !changed && n.round%deltaKeyframeInterval != 0 {
			n.suppressed(1, wire.DeltaBytesSaved(msg, n.idx[k:k+1]))
			msg = wire.ShareReport{Round: n.round, Epoch: n.epoch, Task: n.name, Delta: true}
		}
		n.tell(k, msg)
	}
}

// again re-sends the cached latencies of peers[k], whose resource is stalled
// on them. Before the first allocation there is nothing to re-send.
func (n *controllerNode) again(k int) bool {
	if n.lastLat[k].LatMs == nil {
		return false
	}
	n.tell(k, n.lastLat[k])
	return true
}

// rejoined answers a restarted coordinator: acknowledge with the last
// reported round, and re-send the cached report re-stamped with the new epoch
// so the coordinator can resume aggregation. Duplicate rejoins of the current
// epoch are re-acked (the handshake is idempotent under retries).
func (n *controllerNode) rejoined() {
	n.rejoins++
	ack := wire.RejoinAck{Epoch: n.epoch, Task: n.name, Round: -1}
	if n.haveReport {
		ack.Round = n.lastReport.Round
	}
	n.send(coordinatorAddr, wire.KindRejoinAck, ack, false)
	if n.haveReport && n.reports {
		n.lastReport.Epoch = n.epoch
		n.send(coordinatorAddr, wire.KindReport, n.lastReport, false)
	}
}

// close keeps the controller responsive after its final allocation: a
// resource whose final-round latencies were lost retransmits its price, and
// nobody but this controller can answer. The controller lingers, re-sending
// the cached latencies, until every resource has sent its fin, or until the
// network has been quiet long enough that any live resource would have
// retried (retransmission gaps are capped at RetransmitMax).
func (n *controllerNode) close(now time.Duration) {
	if n.fp.RetransmitAfter <= 0 {
		n.finish(nil)
		return
	}
	n.lingering = true
	n.finned, n.unfinned = make([]bool, len(n.res)), len(n.res)
	n.retransmitAt = now + max(n.fp.RetransmitMax, n.fp.RetransmitAfter)
}

// linger is the controller's step once its rounds are done.
func (n *controllerNode) linger(now time.Duration, ev event) *effects {
	n.begin()
	switch ev.kind {
	case evStop, evClosed:
		n.finish(nil)
	case evTimer:
		if now < n.retransmitAt {
			n.wakeAt(n.retransmitAt)
			return &n.out
		}
		n.quiet++
	case evMessage:
		switch pm := ev.msg.Payload.(type) {
		case wire.Fin:
			if k, ok := n.peerOf[pm.Resource]; ok && !n.finned[k] {
				n.finned[k] = true
				n.unfinned--
			}
		case wire.Rejoin:
			// A coordinator restarting after this controller's final
			// allocation still gets its ack and last report.
			n.quiet = 0
			if !n.fenced(pm.Epoch) {
				n.rejoined()
			}
		case wire.PriceUpdate:
			n.quiet = 0
			if k, ok := n.peerOf[pm.Resource]; ok && pm.Round >= n.limit {
				// The resource opened a round past a stop it missed: pass it on.
				n.send(n.peers[k], wire.KindStop, wire.Stop{AfterRound: n.limit, Epoch: n.epoch}, false)
			} else if ok {
				// The resource is stalled on our final latencies: recover it.
				n.stale()
				n.resend(n, k)
			}
		}
	}
	if n.quiet >= 6 || n.unfinned == 0 {
		n.finish(nil)
	}
	n.retransmitAt = now + max(n.fp.RetransmitMax, n.fp.RetransmitAfter)
	n.wakeAt(n.retransmitAt)
	return &n.out
}

package dist

import (
	"math"
	"slices"
	"sort"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/wire"
)

// shareGroup is the part of a task's allocation one resource hears about:
// the subtasks the task runs there, by ascending name — the order a
// wire.ShareReport lists them in.
type shareGroup struct {
	ri   int      // resource index
	id   string   // resource ID
	subs []string // subtask names, ascending
	si   []int    // their indices in the task, in subs order
}

// shareGroups splits a task's subtasks by resource, resources in order of
// first use. Built once per controller; latencies fills in a round's values.
func shareGroups(p *core.Problem, pt *core.ProblemTask) []shareGroup {
	var groups []shareGroup
	pos := make(map[int32]int)
	for si, ri := range pt.Res {
		k, ok := pos[ri]
		if !ok {
			k = len(groups)
			pos[ri] = k
			groups = append(groups, shareGroup{ri: int(ri), id: p.Resources[ri].ID})
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

// controllerNode is the machine of one task's controller (Section 4.2): the
// peer protocol in the controller role. Each round it waits for the prices of
// every resource its subtasks use — its peers, in order of first use, a
// fixed order, so a seeded fault stream draws the same fault for the same
// frame every run — refreshes path prices, re-solves latencies, and sends
// each resource its share of them.
//
// Asynchronously it also keeps a lease per used resource: one silent past
// LeaseAfter is degraded — its last-known price frozen — and every
// allocation computed while any used resource is degraded is clamped
// deadline-safe (core.ClampDeadlineSafe), so stale prices can make the
// assignment suboptimal but never break a critical-time constraint. A fresh
// price from the resource ends the degradation.
type controllerNode struct {
	peer
	ctl  *core.Controller
	p    *core.Problem
	ti   int
	name string
	// groups holds one entry per distinct resource the task uses, parallel to
	// peers; groupOf resolves a price message's resource ID to its entry.
	groups  []shareGroup
	groupOf map[string]int
	// reports controls whether per-round utility reports go to the
	// coordinator; standalone deployments have none.
	reports bool
	// mu and congested are the price vector Solve reads, by resource index
	// (resources of them, each starting at core.InitialMu), built when a run
	// opens; excess[k] is the capacity excess groups[k]'s latest price
	// carried.
	mu        []float64
	congested []bool
	excess    []float64
	resources int
	// lastLat[k] caches the latest full latency message for groups[k], for
	// retransmission, stale recovery, heartbeats and as the delta codec's
	// reference; its LatMs is nil until the first allocation.
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
	// Leases (asynchronous): when each resource was last heard, and which are
	// degraded.
	lastHeard            []time.Duration
	degraded             []bool
	degradedRounds       int64
	maxDegradedViolation float64
}

// newControllerNode builds the machine of task ti.
func newControllerNode(p *core.Problem, ti int, cfg core.Config, a addresses) *controllerNode {
	n := &controllerNode{
		peer:      peer{node: node{addr: a.ctl[ti]}, kind: wire.KindLatency},
		ctl:       core.NewController(p, ti, cfg.Step),
		p:         p,
		ti:        ti,
		name:      p.Tasks[ti].Name,
		groups:    shareGroups(p, &p.Tasks[ti]),
		groupOf:   make(map[string]int),
		reports:   true,
		resources: len(p.Resources),
	}
	n.lastLat = make([]wire.ShareReport, len(n.groups))
	n.peers = make([]string, len(n.groups))
	for k, g := range n.groups {
		n.peers[k], n.groupOf[g.id] = a.res[g.ri], k
	}
	return n
}

func (n *controllerNode) step(now time.Duration, ev event) *effects {
	if n.lingering {
		return n.linger(now, ev)
	}
	return n.run(n, now, ev)
}

func (n *controllerNode) open(now time.Duration) {
	n.mu, n.congested = make([]float64, n.resources), make([]bool, n.resources)
	n.lastHeard, n.degraded = make([]time.Duration, len(n.groups)), make([]bool, len(n.groups))
	n.excess = make([]float64, len(n.groups))
	for k, g := range n.groups {
		n.mu[g.ri], n.lastHeard[k] = core.InitialMu, now
	}
}

func (n *controllerNode) read(payload any) (k, round int, seq int64, ok bool) {
	pm, isPrice := payload.(wire.PriceUpdate)
	if isPrice {
		k, ok = n.groupOf[pm.Resource]
	}
	return k, pm.Round, pm.Seq, ok
}

// fold takes a price. A delta marker means "same as my previous round": mu
// and congested already hold exactly that (round gating guarantees the round
// r−1 fold happened), so only full payloads write. A fresh price also renews
// the resource's lease and resynchronizes a degraded one.
func (n *controllerNode) fold(k int, payload any, now time.Duration) (changed bool) {
	pm, ri := payload.(wire.PriceUpdate), n.groups[k].ri
	if !pm.Delta {
		changed = n.mu[ri] != pm.Mu || n.congested[ri] != pm.Congested
		n.mu[ri], n.congested[ri], n.excess[k] = pm.Mu, pm.Congested, pm.Excess
	}
	n.lastHeard[k] = now
	if n.degraded[k] {
		n.degraded[k], changed = false, true // leaving degraded changes the clamp
		n.emit(obs.Event{Kind: obs.EventDegradedExit, Task: n.name, Resource: pm.Resource})
	}
	return changed
}

// beat checks the leases with every asynchronous heartbeat.
func (n *controllerNode) beat(now time.Duration) {
	for k, g := range n.groups {
		if n.fp.LeaseAfter > 0 && !n.degraded[k] && now-n.lastHeard[k] > n.fp.LeaseAfter {
			n.degraded[k] = true
			n.dirty, n.owed = true, true // re-clamp on frozen prices
			n.m.LeaseExpirations.Inc()
			n.emit(obs.Event{Kind: obs.EventDegradedEnter, Task: n.name, Resource: g.id})
		}
	}
}

// compute allocates latencies (Section 4.2). A solve on a frozen (stale)
// price may be off-optimum, but it must never break a deadline: it is clamped,
// and never counts as a fixed point — the clamp mutates latencies after the
// solve, so suppression must not engage while any used resource is degraded.
// In the round protocol the round's report goes out first: the point its
// prices complete is the one the coordinator grades.
func (n *controllerNode) compute() (moved bool) {
	if n.reports && n.pace == 0 {
		n.report()
	}
	priceChanged, latChanged := n.ctl.Solve(n.mu, n.congested)
	if slices.Contains(n.degraded, true) {
		n.maxDegradedViolation = max(n.maxDegradedViolation, n.ctl.ClampDeadlineSafe())
		n.degradedRounds++
		n.m.DegradedRounds.Inc()
		return true
	}
	return priceChanged || latChanged
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
// resource. In the round protocol a resource whose latencies are bitwise
// unchanged from the previous round gets a coalesced marker (wire/frames.go)
// instead, except on keyframe rounds.
func (n *controllerNode) speak() {
	for k := range n.groups {
		g := &n.groups[k]
		lats, changed := g.latencies(n.ctl.LatMs, n.lastLat[k].LatMs)
		msg := wire.ShareReport{Round: n.round, Seq: n.seq, Epoch: n.epoch, Task: n.name, Subs: g.subs, LatMs: lats}
		n.lastLat[k] = msg
		if n.pace == 0 && !changed && n.round%deltaKeyframeInterval != 0 {
			n.suppressed(1, wire.DeltaBytesSaved(msg))
			msg = wire.ShareReport{Round: n.round, Epoch: n.epoch, Task: n.name, Delta: true}
		}
		n.tell(k, msg)
	}
}

// again re-sends the cached latencies of groups[k], whose resource is stalled
// on them. Before the first allocation there is nothing to re-send.
func (n *controllerNode) again(k int) bool {
	if n.lastLat[k].LatMs == nil {
		return false
	}
	n.lastLat[k].Seq = n.seq
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
	n.finned, n.unfinned = make([]bool, len(n.groups)), len(n.groups)
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
			if k, ok := n.groupOf[pm.Resource]; ok && !n.finned[k] {
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
			if k, ok := n.groupOf[pm.Resource]; ok && pm.Round >= n.limit {
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

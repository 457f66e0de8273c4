package dist

import (
	"fmt"
	"sync"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// Async mode runs LLA without round synchronization: every node computes on
// whatever prices/latencies have arrived so far and publishes its update
// immediately. This is the deployment style the optimization-flow-control
// literature analyses (gradient methods tolerate bounded staleness), and it
// is how a real system would run — the paper's controllers and resources
// exchange messages continuously rather than in lockstep. The synchronized
// Runtime remains the reference for exact engine equivalence; Async trades
// determinism for decoupling.
//
// Fault tolerance: every message carries a per-sender monotonic sequence
// number, and receivers reject duplicates and reordered-stale deliveries.
// Each node rebroadcasts its current state whenever it has been idle for
// FaultPolicy.RetransmitAfter — that rebroadcast is simultaneously the
// heartbeat that feeds failure detection and the recovery path for lost
// messages. Controllers track a lease per resource they use: when a resource
// stays silent past FaultPolicy.LeaseAfter it is marked degraded — its
// last-known price is frozen, and every allocation computed while any used
// resource is degraded is clamped deadline-safe (core.ClampDeadlineSafe), so
// stale prices can make the assignment suboptimal but never break a
// critical-time constraint. A fresh price from the resource ends the
// degradation and resynchronizes automatically.

// AsyncResult summarizes an asynchronous run.
type AsyncResult struct {
	// Utility is the aggregate utility at the end of the run.
	Utility float64
	// LatMs[ti][si] are the final latencies.
	LatMs [][]float64
	// Mu[ri] are the final resource prices.
	Mu []float64
	// ControllerSteps and ResourceSteps count compute steps across nodes.
	ControllerSteps int
	ResourceSteps   int
	// Retransmits counts idle-heartbeat rebroadcasts across all nodes.
	Retransmits int64
	// RejectedStale counts deliveries rejected by sequence-number dedup
	// (duplicates and reordered-stale messages).
	RejectedStale int64
	// DegradedRounds counts controller compute steps taken while at least
	// one used resource's lease had expired.
	DegradedRounds int64
	// SkippedSteps counts compute steps suppressed because the node's inputs
	// were bitwise unchanged and its previous update was a fixed point, so
	// recomputing would reproduce the exact state already published. Idle heartbeats still fire while
	// suppressed, keeping leases alive and recovering lost messages.
	SkippedSteps int64
	// MaxDegradedPathViolation is the worst relative critical-time violation
	// left after deadline-safe clamping across all degraded steps — 0 unless
	// the workload itself is degenerate.
	MaxDegradedPathViolation float64
}

// RunAsync executes the asynchronous protocol for the given wall-clock
// duration over the network with the default fault policy, then quiesces and
// returns the final state. pace is the minimum interval between a node's
// compute steps (0 = 1ms): it bounds each node's update rate so that no
// controller/resource pair can spin thousands of iterations ahead of a
// lagging peer — unbounded relative staleness destabilizes the gradient
// updates. On a real network the round-trip time provides this pacing for
// free.
func RunAsync(w *workload.Workload, cfg core.Config, net transport.Network, d, pace time.Duration) (*AsyncResult, error) {
	return RunAsyncWithPolicy(w, cfg, net, d, pace, DefaultFaultPolicy())
}

// RunAsyncWithPolicy is RunAsync with an explicit fault policy (heartbeat
// interval and failure-detection lease).
func RunAsyncWithPolicy(w *workload.Workload, cfg core.Config, net transport.Network, d, pace time.Duration, fp FaultPolicy) (*AsyncResult, error) {
	return RunAsyncObserved(w, cfg, net, d, pace, fp, nil)
}

// RunAsyncObserved is RunAsyncWithPolicy with observability attached: the
// lla_dist_* counters increment live as the fault machinery fires, resource
// gauges track each price publication, and the trace sink receives
// degraded_enter/degraded_exit events at every lease transition (plus
// lease_expiry when a controller first marks a resource silent). A nil
// observer behaves exactly like RunAsyncWithPolicy.
func RunAsyncObserved(w *workload.Workload, cfg core.Config, net transport.Network, d, pace time.Duration, fp FaultPolicy, o *obs.Observer) (*AsyncResult, error) {
	if pace <= 0 {
		pace = time.Millisecond
	}
	fp = fp.withDefaults()
	cfg = cfg.WithDefaults()
	p, err := core.Compile(w, cfg.WeightMode)
	if err != nil {
		return nil, err
	}
	// Nil-safe metric handles: all remain nil (no-op) without a registry.
	var cRetrans, cStale, cDegraded, cLease *obs.Counter
	var rms []*obs.ResourceMetrics
	if o != nil && o.Metrics != nil {
		dm := obs.NewDistMetrics(o.Metrics)
		cRetrans, cStale = dm.Retransmits, dm.RejectedStale
		cDegraded, cLease = dm.DegradedRounds, dm.LeaseExpirations
		rms = make([]*obs.ResourceMetrics, len(p.Resources))
		for ri := range p.Resources {
			rms[ri] = obs.NewResourceMetrics(o.Metrics, p.Resources[ri].ID)
		}
	}

	// The async loops below reuse the synchronized nodes' wiring — endpoint,
	// agent or controller, and the name indexes built once at construction —
	// and none of their round state.
	var ctls []*controllerNode
	var ress []*resourceNode
	for ti := range p.Tasks {
		ep, err := net.Endpoint(controllerAddr(p.Tasks[ti].Name))
		if err != nil {
			return nil, fmt.Errorf("dist: async: %w", err)
		}
		ctls = append(ctls, newControllerNode(p, ti, core.NewController(p, ti, cfg.Step, cfg.MaxInner), ep))
	}
	for ri := range p.Resources {
		ep, err := net.Endpoint(resourceAddr(p.Resources[ri].ID))
		if err != nil {
			return nil, fmt.Errorf("dist: async: %w", err)
		}
		ress = append(ress, newResourceNode(p, ri, cfg, ep))
	}
	defer func() {
		for _, n := range ctls {
			n.ep.Close()
		}
		for _, n := range ress {
			n.ep.Close()
		}
	}()

	stop := make(chan struct{})
	res := &AsyncResult{}
	var mu sync.Mutex // guards the shared counters in res
	var wg sync.WaitGroup

	// fresh returns whether a message passes per-sender sequence dedup.
	// Seq 0 (a sender without the reliability layer) is always accepted.
	fresh := func(lastSeq map[string]int64, from string, seq int64) bool {
		if seq == 0 {
			return true
		}
		if seq <= lastSeq[from] {
			mu.Lock()
			res.RejectedStale++
			mu.Unlock()
			cStale.Inc()
			return false
		}
		lastSeq[from] = seq
		return true
	}

	// Resource nodes: maintain the latest latency of each local subtask
	// (fair-split default until reported), reprice on every message batch,
	// and heartbeat the current price while idle.
	for _, n := range ress {
		wg.Add(1)
		go func(n *resourceNode) {
			defer wg.Done()
			r := &p.Resources[n.ri]
			lat := n.lat
			for _, sub := range r.Subs {
				fair := r.Availability / float64(len(r.Subs))
				lat[sub] = p.Share(p.SubtaskAt(sub)).LatencyFor(fair)
			}
			lastSeq := make(map[string]int64)
			var seq int64
			lastSent := time.Now()
			// publish recomputes the price from current latencies and
			// multicasts it; heartbeat re-sends the last price unchanged.
			send := func(msg wire.PriceUpdate) {
				for _, tn := range n.controllers {
					_ = n.ep.Send(controllerAddr(tn), wire.KindPrice, msg)
				}
				lastSent = time.Now()
			}
			// dirty tracks whether any input latency changed bitwise since the
			// last recompute; stable whether that recompute was a fixed point
			// of the agent. Both false → re-running would republish the exact
			// same price, so the sparse path skips it.
			dirty, stable := true, false
			var lastMsg wire.PriceUpdate
			publish := func() {
				sum := 0.0
				for _, sub := range r.Subs {
					sum += p.ShareAt(sub, lat[sub])
				}
				stable = !n.agent.update(p, lat, sum)
				dirty = false
				if rms != nil {
					rm := rms[n.ri]
					rm.ShareSum.Set(sum)
					rm.Availability.Set(r.Availability)
					rm.Utilization.Set(sum / r.Availability)
					rm.Price.Set(n.agent.mu)
				}
				seq++
				lastMsg = wire.PriceUpdate{Seq: seq, Resource: r.ID, Mu: n.agent.mu, Congested: r.Congested(sum)}
				send(lastMsg)
				mu.Lock()
				res.ResourceSteps++
				mu.Unlock()
			}
			handle := func(m transport.Message) {
				lm, ok := m.Payload.(wire.ShareReport)
				if !ok || !fresh(lastSeq, m.From, lm.Seq) {
					return
				}
				for j, sn := range lm.Subs {
					if sub, ok := n.subIdx[subKey{lm.Task, sn}]; ok {
						if v := lm.LatMs[j]; lat[sub] != v {
							lat[sub] = v
							dirty = true
						}
					}
				}
			}
			var tick <-chan time.Time
			if fp.RetransmitAfter > 0 {
				t := time.NewTicker(fp.RetransmitAfter)
				defer t.Stop()
				tick = t.C
			}
			publish() // seed the loop
			for {
				// Block for one message, then drain everything pending so
				// a burst coalesces into a single recompute+broadcast —
				// without coalescing each inbound message would fan out to
				// every controller and the message population would grow
				// without bound.
				select {
				case m, ok := <-n.ep.Recv():
					if !ok {
						return
					}
					handle(m)
				case <-tick:
					// Idle heartbeat: re-advertise the current price with a
					// fresh sequence number so controllers can both detect
					// liveness and recover a lost broadcast.
					if time.Since(lastSent) >= fp.RetransmitAfter {
						seq++
						lastMsg.Seq = seq
						send(lastMsg)
						mu.Lock()
						res.Retransmits++
						mu.Unlock()
						cRetrans.Inc()
					}
					continue
				case <-stop:
					return
				}
			drainRes:
				for {
					select {
					case m, ok := <-n.ep.Recv():
						if !ok {
							return
						}
						handle(m)
					default:
						break drainRes
					}
				}
				if !dirty && stable {
					mu.Lock()
					res.SkippedSteps++
					mu.Unlock()
					continue
				}
				publish()
				time.Sleep(pace)
			}
		}(n)
	}

	// Controller nodes: fold in whatever prices arrived, reallocate and
	// publish; track a lease per used resource and degrade to deadline-safe
	// allocations while a resource is silent.
	for _, n := range ctls {
		wg.Add(1)
		go func(n *controllerNode) {
			defer wg.Done()
			muVec := make([]float64, len(p.Resources))
			for ri := range muVec {
				muVec[ri] = cfg.InitialMu
			}
			congested := make([]bool, len(p.Resources))
			pt := &p.Tasks[n.ti]
			groups := n.groups
			used := make([]int, len(groups))
			for k := range groups {
				used[k] = groups[k].ri
			}
			lastHeard := make(map[int]time.Time, len(used))
			degraded := make(map[int]bool, len(used))
			for _, ri := range used {
				lastHeard[ri] = time.Now()
			}
			lastSeq := make(map[string]int64)
			var seq int64
			lastSent := time.Now()
			// lastOut[k] is the latest latency message for groups[k], kept so
			// heartbeats can re-send the whole last batch; nil before the first
			// publish. Messages leave in groups order, a fixed one.
			var lastOut []wire.ShareReport
			send := func(msgs []wire.ShareReport) {
				for k, msg := range msgs {
					_ = n.ep.Send(resourceAddr(p.Resources[groups[k].ri].ID), wire.KindLatency, msg)
				}
				lastSent = time.Now()
			}
			// dirty tracks bitwise input changes (fresh price values, lease
			// transitions) since the last solve; stable whether that solve was
			// a fixed point. Degraded solves are never stable: the clamp
			// mutates latencies after the solve, so suppression must not
			// engage while any used resource is degraded.
			dirty, stable := true, false
			publish := func() {
				priceChanged, latChanged := n.ctl.Solve(muVec, congested)
				anyDegraded := false
				for _, ri := range used {
					if degraded[ri] {
						anyDegraded = true
						break
					}
				}
				stable = !priceChanged && !latChanged && !anyDegraded
				dirty = false
				if anyDegraded {
					// Operating on a frozen (stale) price: the allocation may
					// be off-optimum, but it must never break a deadline.
					v := n.ctl.ClampDeadlineSafe()
					mu.Lock()
					res.DegradedRounds++
					if v > res.MaxDegradedPathViolation {
						res.MaxDegradedPathViolation = v
					}
					mu.Unlock()
					cDegraded.Inc()
				}
				seq++
				lastOut = lastOut[:0]
				for k := range groups {
					lats, _ := groups[k].latencies(n.ctl.LatMs, nil)
					lastOut = append(lastOut, wire.ShareReport{Seq: seq, Task: pt.Name, Subs: groups[k].subs, LatMs: lats})
				}
				send(lastOut)
				mu.Lock()
				res.ControllerSteps++
				mu.Unlock()
			}
			handle := func(m transport.Message) {
				pm, ok := m.Payload.(wire.PriceUpdate)
				if !ok || !fresh(lastSeq, m.From, pm.Seq) {
					return
				}
				for ri := range p.Resources {
					if p.Resources[ri].ID == pm.Resource {
						if muVec[ri] != pm.Mu || congested[ri] != pm.Congested {
							dirty = true
						}
						muVec[ri] = pm.Mu
						congested[ri] = pm.Congested
						// A fresh price resynchronizes a degraded resource.
						lastHeard[ri] = time.Now()
						if degraded[ri] {
							dirty = true // leaving degraded changes the clamp
							if o != nil {
								o.Emit(obs.Event{Kind: obs.EventDegradedExit, Task: pt.Name, Resource: pm.Resource})
							}
						}
						degraded[ri] = false
						break
					}
				}
			}
			var tick <-chan time.Time
			if fp.RetransmitAfter > 0 {
				t := time.NewTicker(fp.RetransmitAfter)
				defer t.Stop()
				tick = t.C
			}
			for {
				recompute := false
				select {
				case m, ok := <-n.ep.Recv():
					if !ok {
						return
					}
					handle(m)
					recompute = true
				case <-tick:
					if fp.LeaseAfter > 0 {
						now := time.Now()
						for _, ri := range used {
							if !degraded[ri] && now.Sub(lastHeard[ri]) > fp.LeaseAfter {
								degraded[ri] = true
								recompute = true // re-clamp on frozen prices
								dirty = true
								cLease.Inc()
								if o != nil {
									o.Emit(obs.Event{Kind: obs.EventDegradedEnter, Task: pt.Name, Resource: p.Resources[ri].ID})
								}
							}
						}
					}
					// Idle heartbeat: re-send the last latencies so silent
					// resources can recover and observe our liveness.
					if lastOut != nil && time.Since(lastSent) >= fp.RetransmitAfter {
						seq++
						for k := range lastOut {
							lastOut[k].Seq = seq
						}
						send(lastOut)
						mu.Lock()
						res.Retransmits++
						mu.Unlock()
						cRetrans.Inc()
					}
					if !recompute {
						continue
					}
				case <-stop:
					return
				}
			drainCtl:
				for {
					select {
					case m, ok := <-n.ep.Recv():
						if !ok {
							return
						}
						handle(m)
					default:
						break drainCtl
					}
				}
				if !dirty && stable {
					mu.Lock()
					res.SkippedSteps++
					mu.Unlock()
					continue
				}
				publish()
				time.Sleep(pace)
			}
		}(n)
	}

	time.Sleep(d)
	close(stop)
	wg.Wait()

	for _, n := range ctls {
		res.Utility += n.ctl.Utility()
		res.LatMs = append(res.LatMs, append([]float64(nil), n.ctl.LatMs...))
	}
	for _, n := range ress {
		res.Mu = append(res.Mu, n.agent.mu)
	}
	return res, nil
}

// Package dist runs LLA as a genuinely distributed system (Section 4.1):
// one resource node per resource computing prices (Equation 8), one
// controller node per task allocating latencies and path prices (Equations
// 7 and 9), all communicating over a transport.Network with the messages
// internal/wire defines. The protocol is round-synchronized, so a dist run
// over a loss-free network reproduces the synchronous core.Engine
// iterate-for-iterate; the test suite asserts that equivalence.
package dist

import (
	"fmt"
	"sync"
	"time"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/stats"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// Runtime assembles and drives a distributed LLA deployment: one resource
// node per resource, one controller node per task, and a coordinator that
// aggregates per-round utility reports and watches per-task report leases.
type Runtime struct {
	p           *core.Problem
	cfg         core.Config
	net         transport.Network
	controllers []*core.Controller
	ctlNodes    []*controllerNode
	resNodes    []*resourceNode
	coordinator transport.Endpoint

	fp       FaultPolicy
	admitCfg admit.Config
	stop     chan struct{}
	stopOnce sync.Once

	// obsv and dm are set by Observe; nil means no observability overhead
	// beyond the nodes' nil-safe counter calls.
	obsv *obs.Observer
	dm   *obs.DistMetrics
}

// New compiles the workload and registers all endpoints on the network.
func New(w *workload.Workload, cfg core.Config, net transport.Network) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	p, err := core.Compile(w, cfg.WeightMode)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		p:    p,
		cfg:  cfg,
		net:  net,
		fp:   DefaultFaultPolicy(),
		stop: make(chan struct{}),
	}
	r.coordinator, err = net.Endpoint(coordinatorAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	for ti := range p.Tasks {
		ep, err := net.Endpoint(controllerAddr(p.Tasks[ti].Name))
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		ctl := core.NewController(p, ti, cfg.Step, cfg.MaxInner)
		r.controllers = append(r.controllers, ctl)
		r.ctlNodes = append(r.ctlNodes, newControllerNode(p, ti, ctl, ep))
	}
	for ri := range p.Resources {
		ep, err := net.Endpoint(resourceAddr(p.Resources[ri].ID))
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		r.resNodes = append(r.resNodes, newResourceNode(p, ri, cfg, ep))
	}
	return r, nil
}

// SetFaultPolicy overrides the fault-tolerance policy (retransmission timers
// and report leases). Call before Run; the zero policy disables
// retransmission and lease tracking entirely, which is only safe on
// loss-free networks.
func (r *Runtime) SetFaultPolicy(fp FaultPolicy) { r.fp = fp.withDefaults() }

// Observe attaches observability to the deployment; nil detaches. Call
// before Run. With a metrics registry attached, every node increments the
// lla_dist_* counters live (alongside the join-time Result totals), resource
// nodes refresh the per-resource gauges each completed round, and the
// coordinator counts rounds and samples round latency; with a trace sink
// attached, the coordinator emits lease_expiry and converged events.
func (r *Runtime) Observe(o *obs.Observer) {
	r.obsv, r.dm = o, nil
	if o != nil && o.Metrics != nil {
		r.dm = obs.NewDistMetrics(o.Metrics)
	}
	for _, n := range r.resNodes {
		n.observe(o)
	}
	for _, n := range r.ctlNodes {
		n.observe(o)
	}
}

// Shutdown asks all nodes to stop gracefully at their next receive: node
// goroutines return without error, Run joins them and returns the state
// reached so far. Safe to call concurrently with Run and more than once.
func (r *Runtime) Shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Result summarizes a distributed run.
type Result struct {
	// Rounds is the number of rounds the coordinator saw completed reports
	// for. Reports are best-effort under loss, so this may trail the rounds
	// the protocol actually completed.
	Rounds int
	// Utility is the final aggregate utility, computed from the controllers'
	// final state (robust to lost coordinator reports).
	Utility float64
	// UtilitySeries records the aggregate utility per fully reported round.
	UtilitySeries *stats.Series
	// LatMs[ti][si] are the final latencies.
	LatMs [][]float64
	// Mu[ri] are the final resource prices.
	Mu []float64
	// Converged reports whether a convergence stop fired (RunUntilConverged
	// only).
	Converged bool
	// Retransmits counts messages re-sent by the reliability layer
	// (sender-side timeouts plus receiver-side stale recovery).
	Retransmits int64
	// RejectedStale counts received messages from already-completed rounds.
	RejectedStale int64
	// DeltaSuppressed counts delta-encoded sends: broadcasts and share
	// reports whose payload was unchanged and went out as markers.
	DeltaSuppressed int64
	// DeltaBytesSaved totals the frame bytes those markers kept off the
	// wire (wire.DeltaBytesSaved).
	DeltaBytesSaved int64
	// LeaseExpirations counts coordinator-observed report leases expiring: a
	// controller stayed silent longer than FaultPolicy.LeaseAfter.
	LeaseExpirations int64
	// SolverFallbacks totals the accelerated price solvers' safeguard
	// fallbacks to the reference gradient step across all resource nodes
	// (0 under the reference gradient solver).
	SolverFallbacks uint64
	// Admissions records every admission query the coordinator answered
	// during the run, in arrival order (see admission.go).
	Admissions []AdmissionDecision
	// Epoch is the coordinator generation the run finished on: 0 for an
	// uninterrupted run, bumped once per coordinator restart (failover.go).
	Epoch uint64
	// CoordinatorRestarts counts coordinator crash/restart cycles executed
	// by a failover plan.
	CoordinatorRestarts int
	// FencedStale counts stale-epoch frames discarded by epoch fencing,
	// summed over the coordinator (old-generation reports and acks) and the
	// nodes (a zombie coordinator's control frames).
	FencedStale int64
	// Rejoins counts completed rejoin handshakes (controller acks processed
	// by a restarted coordinator).
	Rejoins int64
}

// Run executes exactly rounds synchronous rounds and returns the final
// state. A loss-free in-order network makes the result identical to
// core.Engine after the same number of Steps; on lossy networks the
// reliability layer (see nodes.go) recovers the same result bitwise.
func (r *Runtime) Run(rounds int) (*Result, error) {
	return r.run(rounds, nil)
}

// RunUntilConverged executes until the aggregate utility is stable (relative
// change < relTol over window rounds) or maxRounds; on convergence it
// broadcasts a stop and lets the protocol drain.
func (r *Runtime) RunUntilConverged(maxRounds int, relTol float64, window int) (*Result, error) {
	det := stats.NewConvergenceDetector(relTol, window)
	return r.run(maxRounds, det)
}

// startNodes installs the fault policy on every node and launches the node
// goroutines; failures land on errCh. Shared by run and RunWithFailover.
func (r *Runtime) startNodes(maxRounds int, wg *sync.WaitGroup, errCh chan<- error) {
	for _, n := range r.resNodes {
		n.fp, n.stop = r.fp, r.stop
		wg.Add(1)
		go func(n *resourceNode) {
			defer wg.Done()
			if err := n.run(maxRounds); err != nil {
				errCh <- err
			}
		}(n)
	}
	for _, n := range r.ctlNodes {
		n.fp, n.stop = r.fp, r.stop
		wg.Add(1)
		go func(n *controllerNode) {
			defer wg.Done()
			if err := n.run(maxRounds); err != nil {
				errCh <- err
			}
		}(n)
	}
}

// collect folds the final node state and counters into res after all node
// goroutines have joined. Shared by run and RunWithFailover.
func (r *Runtime) collect(res *Result) {
	res.Rounds = res.UtilitySeries.Len()
	for _, c := range r.controllers {
		res.Utility += c.Utility()
		res.LatMs = append(res.LatMs, append([]float64(nil), c.LatMs...))
	}
	for _, n := range r.ctlNodes {
		n.addTo(res)
		res.FencedStale += n.fencedEpoch
		res.Rejoins += n.rejoins
	}
	for _, n := range r.resNodes {
		n.addTo(res)
		res.FencedStale += n.fencedEpoch
		res.SolverFallbacks += n.agent.fallbacks()
		res.Mu = append(res.Mu, n.agent.mu)
	}
}

// run starts all nodes, monitors reports at the coordinator, and joins.
func (r *Runtime) run(maxRounds int, det *stats.ConvergenceDetector) (*Result, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("dist: rounds must be positive, got %d", maxRounds)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(r.ctlNodes)*2+len(r.resNodes)*2+8)
	r.startNodes(maxRounds, &wg, errCh)

	// Coordinator: aggregate per-round utilities and watch report leases; on
	// convergence, broadcast stop. The coordinator reads until its endpoint
	// closes after all nodes have joined.
	res := &Result{UtilitySeries: stats.NewSeries("utility")}
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		perRound := make(map[int]float64)
		counts := make(map[int]int)
		converged := false
		nextEmit := 0
		lastReport := make(map[string]time.Time)
		expired := make(map[string]bool)
		start := time.Now()
		lastEmit := start
		for ti := range r.p.Tasks {
			lastReport[r.p.Tasks[ti].Name] = start
		}
		var lease <-chan time.Time
		if r.fp.LeaseAfter > 0 {
			t := time.NewTicker(r.fp.LeaseAfter)
			defer t.Stop()
			lease = t.C
		}
		for {
			select {
			case m, ok := <-r.coordinator.Recv():
				if !ok {
					return
				}
				if m.Kind == kindAdmitQuery {
					r.handleAdmitQuery(m, res)
					continue
				}
				rm, ok := m.Payload.(wire.UtilityReport)
				if !ok {
					continue
				}
				lastReport[rm.Task] = time.Now()
				delete(expired, rm.Task)
				perRound[rm.Round] += rm.Utility
				counts[rm.Round]++
				// Emit completed rounds strictly in order: a fast
				// controller's round r+1 report can beat a slow controller's
				// round r report.
				for counts[nextEmit] == len(r.ctlNodes) {
					u := perRound[nextEmit]
					res.UtilitySeries.Append(float64(nextEmit), u)
					delete(perRound, nextEmit)
					delete(counts, nextEmit)
					if r.dm != nil {
						now := time.Now()
						r.dm.Rounds.Inc()
						r.dm.RoundSeconds.Observe(now.Sub(lastEmit).Seconds())
						lastEmit = now
					}
					if det != nil && !converged && det.Observe(u) {
						converged = true
						res.Converged = true
						if r.obsv != nil {
							r.obsv.Emit(obs.Event{Kind: obs.EventConverged, Round: nextEmit, Value: u})
						}
						r.broadcastStop(nextEmit+1, 0, errCh)
					}
					nextEmit++
				}
			case <-lease:
				now := time.Now()
				for task, ts := range lastReport {
					if now.Sub(ts) > r.fp.LeaseAfter && !expired[task] {
						expired[task] = true
						res.LeaseExpirations++
						if r.dm != nil {
							r.dm.LeaseExpirations.Inc()
						}
						if r.obsv != nil {
							r.obsv.Emit(obs.Event{Kind: obs.EventLeaseExpiry, Round: nextEmit, Task: task})
						}
					}
				}
			}
		}
	}()

	wg.Wait()
	r.coordinator.Close()
	<-coordDone
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	r.collect(res)
	return res, nil
}

// broadcastStop tells every node to stop after the given round, stamped with
// the coordinator's current epoch (0 for uninterrupted runs).
func (r *Runtime) broadcastStop(afterRound int, epoch uint64, errCh chan<- error) {
	msg := wire.Stop{AfterRound: afterRound, Epoch: epoch}
	for ti := range r.p.Tasks {
		if err := r.coordinator.Send(controllerAddr(r.p.Tasks[ti].Name), wire.KindStop, msg); err != nil {
			errCh <- err
		}
	}
	for ri := range r.p.Resources {
		if err := r.coordinator.Send(resourceAddr(r.p.Resources[ri].ID), wire.KindStop, msg); err != nil {
			errCh <- err
		}
	}
}

// Close releases all endpoints.
func (r *Runtime) Close() error {
	var first error
	for _, n := range r.ctlNodes {
		if err := n.ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, n := range r.resNodes {
		if err := n.ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Address helpers: resources and controllers get deterministic names.
func resourceAddr(id string) string  { return "res/" + id }
func controllerAddr(t string) string { return "ctl/" + t }

// coordinatorAddr is the runtime's aggregation endpoint.
const coordinatorAddr = "coordinator"

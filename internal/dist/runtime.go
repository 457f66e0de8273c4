// Package dist runs LLA as a genuinely distributed system (Section 4.1):
// one resource node per resource computing prices (Equation 8), one
// controller node per task allocating latencies and path prices (Equations
// 7 and 9), all communicating over a transport.Network with the messages
// internal/wire defines. The protocol is round-synchronized, so a dist run
// over a loss-free network reproduces the synchronous core.Engine
// iterate-for-iterate; the test suite asserts that equivalence.
package dist

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	rec "lla/internal/recover"
	"lla/internal/task"
	"lla/internal/transport"
	"lla/internal/workload"
)

// Runtime assembles and drives a distributed LLA deployment: one resource
// node per resource, one controller node per task, and a coordinator that
// aggregates per-round utility reports and watches per-task report leases.
// The nodes are state machines (machine.go); New runs them on goroutines
// over a transport.Network and the wall clock, NewSim on a seeded virtual
// network and clock.
type Runtime struct {
	p        *core.Problem
	cfg      core.Config
	ctlNodes []*controllerNode
	resNodes []*resourceNode
	// nodes and peers are every controller, then every resource, as machines
	// and as protocol state; eps their endpoints under New, in that order —
	// nil, like coordEp, under NewSim, whose network is sim.
	nodes   []machine
	peers   []*peer
	eps     []transport.Endpoint
	coordEp transport.Endpoint
	sim     *Sim

	fp       FaultPolicy
	stop     chan struct{}
	stopOnce sync.Once
	// ran is set by the first run: the nodes' state is spent after it.
	ran bool

	// obsv is set by Observe; nil means no observability overhead beyond the
	// nodes' nil-safe counter calls.
	obsv *obs.Observer
}

// compile is the first thing every entry point does with its workload: the
// (identical, deterministic) problem each node of a deployment derives.
func compile(w *workload.Workload, cfg core.Config) (*core.Problem, core.Config, error) {
	cfg = cfg.WithDefaults()
	if _, err := price.ParseSolver(string(cfg.PriceSolver)); err != nil {
		return nil, cfg, fmt.Errorf("dist: %w", err)
	}
	p, err := core.Compile(w, cfg.WeightMode)
	return p, cfg, err
}

// New compiles the workload, builds every node's machine and registers its
// endpoint on the network as it goes (a listener's set-up overlaps the next
// node's construction).
func New(w *workload.Workload, cfg core.Config, net transport.Network) (*Runtime, error) {
	p, cfg, err := compile(w, cfg)
	if err != nil {
		return nil, err
	}
	r := &Runtime{p: p, cfg: cfg, fp: DefaultFaultPolicy(), stop: make(chan struct{})}
	n, a := p.NumTasks()+len(p.Resources), addressesOf(p)
	r.nodes, r.peers = make([]machine, 0, n), make([]*peer, 0, n)
	add := func(m machine, n *peer) {
		r.nodes, r.peers = append(r.nodes, m), append(r.peers, n)
		if net != nil && err == nil {
			var ep transport.Endpoint
			if ep, err = net.Endpoint(n.addr); err == nil {
				r.eps = append(r.eps, ep)
			}
		}
	}
	if net != nil {
		r.coordEp, err = net.Endpoint(coordinatorAddr)
	}
	inc := core.NewIncidence(p)
	for ti := range p.NumTasks() {
		n := newControllerNode(p, ti, inc.TaskResources(ti), cfg, a)
		r.ctlNodes = append(r.ctlNodes, n)
		add(n, &n.peer)
	}
	for ri := range p.Resources {
		n := newResourceNode(p, ri, cfg, a)
		r.resNodes = append(r.resNodes, n)
		add(n, &n.peer)
	}
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("dist: %w", err)
	}
	return r, nil
}

// addresses are a deployment's node addresses by task and resource index,
// built once so that every node's peer list shares the strings.
type addresses struct{ ctl, res []string }

func addressesOf(p *core.Problem) addresses {
	a := addresses{make([]string, p.NumTasks()), make([]string, len(p.Resources))}
	for ti, t := range p.Workload().Tasks {
		a.ctl[ti] = controllerAddr(t.Name)
	}
	for ri := range p.Resources {
		a.res[ri] = resourceAddr(p.Resources[ri].ID)
	}
	return a
}

// NewSim is New on the virtual driver: no network, no goroutines, no wall
// clock. The deployment runs on a virtual network with chaos's faults and a
// virtual clock, both seeded by chaos.Seed (see Sim), so the same arguments
// give the same run — event for event — every time. FaultPolicy durations
// and Crash.DownFor are virtual durations.
func NewSim(w *workload.Workload, cfg core.Config, chaos transport.ChaosConfig) (*Runtime, error) {
	r, err := New(w, cfg, nil) // no network: no endpoints
	if err != nil {
		return nil, err
	}
	r.sim = &Sim{Faults: transport.NewFaults(chaos)}
	return r, nil
}

// Sim returns the virtual network and clock of a NewSim runtime (to crash
// and partition nodes, schedule events, or log the run); nil for New's.
func (r *Runtime) Sim() *Sim { return r.sim }

// SetFaultPolicy overrides the fault-tolerance policy (retransmission timers
// and report leases). Call before Run; the zero policy disables
// retransmission and lease tracking entirely, which is only safe on
// loss-free networks. An unset RetransmitMax is 20 × RetransmitAfter.
func (r *Runtime) SetFaultPolicy(fp FaultPolicy) {
	if fp.RetransmitAfter > 0 && fp.RetransmitMax <= 0 {
		fp.RetransmitMax = 20 * fp.RetransmitAfter
	}
	r.fp = fp
}

// Observe attaches observability to the deployment; nil detaches. Call
// before Run. With a metrics registry attached, every node increments the
// lla_dist_* counters live (alongside the join-time Result totals), resource
// nodes refresh the per-resource gauges each completed round, and the
// coordinator counts rounds and samples round latency; with a trace sink
// attached, the coordinator emits lease_expiry, converged and epoch_bump
// events, each stamped with its round, epoch and node.
func (r *Runtime) Observe(o *obs.Observer) {
	r.obsv = o
	for _, n := range r.resNodes {
		n.observe(o)
	}
	for _, n := range r.ctlNodes {
		n.m = metricsFor(o)
	}
}

// Shutdown asks all nodes to stop gracefully at their next event: they
// finish without error, the run joins them and returns the state reached so
// far. Safe to call concurrently with a run and more than once.
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
	// LatMs[ti][si] are the final latencies.
	LatMs [][]float64
	// Mu[ri] are the final resource prices.
	Mu []float64
	// Converged reports whether RunUntilKKT's certificate stop fired.
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
	// Epoch is the coordinator generation the run finished on: 0 for an
	// uninterrupted run, bumped once per coordinator restart.
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
// state. A Runtime runs once: a second Run, RunUntilKKT or RunWithFailover
// is an error. A loss-free in-order network makes the result identical to
// core.Engine after the same number of Steps; on lossy networks the
// reliability layer (see peer.go) recovers the same result bitwise.
func (r *Runtime) Run(rounds int) (*Result, error) {
	return r.run(rounds, false, FailoverPlan{})
}

// RunUntilKKT executes until the coordinator has certified
// core.StopWindow consecutive rounds, or maxRounds. The certificate is
// core.Engine.RunUntilKKT's at the core Stop constants: round k grades the
// point Certify grades after Step k, so a lossless run certifies (the
// converged event's Iteration) where the engine does. The stop then drains
// the protocol (coordinator.certify).
func (r *Runtime) RunUntilKKT(maxRounds int) (*Result, error) {
	return r.run(maxRounds, true, FailoverPlan{})
}

// RunWithFailover executes up to maxRounds synchronous rounds while crashing
// and restarting the coordinator according to plan. Node state is never
// touched — the run's final latencies and prices are bitwise identical to an
// uninterrupted run — but aggregate reporting is best-effort across the
// crash gaps: rounds whose reports died with a coordinator generation are
// skipped by the emission cursor, so Result.Rounds may trail further than an
// uninterrupted run's would.
func (r *Runtime) RunWithFailover(maxRounds int, plan FailoverPlan) (*Result, error) {
	return r.run(maxRounds, false, plan)
}

// run is every synchronized mode: the nodes run maxRounds rounds while the
// coordinator aggregates, stops the run on the certificate (if untilKKT), and
// lives through plan's crashes. No caller sets both untilKKT and a crash plan.
func (r *Runtime) run(maxRounds int, untilKKT bool, plan FailoverPlan) (*Result, error) {
	if err := checkRounds(maxRounds); err != nil {
		return nil, err
	}
	if r.ran {
		return nil, fmt.Errorf("dist: the runtime has already run")
	}
	epoch, err := rec.LatestEpoch(plan.CheckpointDir) // 0 without a directory
	if err != nil {
		return nil, fmt.Errorf("dist: seeding the epoch: %w", err)
	}
	r.ran = true
	res := &Result{Epoch: epoch}
	c := &coordinator{
		node:     node{addr: coordinatorAddr, epoch: epoch, fp: r.fp, nodeCounters: nodeCounters{m: metricsFor(r.obsv)}},
		rt:       r,
		untilKKT: untilKKT,
		plan:     plan,
		res:      res,
		taskIdx:  make(map[string]int, len(r.ctlNodes)),
	}
	for ti, n := range r.ctlNodes {
		c.taskIdx[n.name] = ti
	}
	if err := r.drive(c, maxRounds); err != nil {
		return nil, err
	}
	r.collect(res)
	return res, nil
}

// collect folds the nodes' final state and counters into res.
func (r *Runtime) collect(res *Result) {
	add := func(n *peer) {
		res.FencedStale += n.fencedEpoch
		res.Retransmits += n.retransmits
		res.RejectedStale += n.rejectedStale
		res.DeltaSuppressed += n.deltaSuppressed
		res.DeltaBytesSaved += n.deltaBytesSaved
	}
	for _, n := range r.ctlNodes {
		res.Utility += n.ctl.Utility()
		res.LatMs = append(res.LatMs, slices.Clone(n.ctl.LatMs))
		res.Rejoins += n.rejoins
		add(&n.peer)
	}
	for _, n := range r.resNodes {
		res.Mu = append(res.Mu, n.mu)
		res.SolverFallbacks += n.dyn.Fallbacks()
		add(&n.peer)
	}
}

// drive configures the node machines for rounds rounds and runs them, with
// the coordinator, on the runtime's driver to completion.
func (r *Runtime) drive(c *coordinator, rounds int) error {
	for _, n := range r.peers {
		n.fp, n.limit = r.fp, rounds
		if r.sim != nil {
			n.rng = r.sim.Faults
		} else if r.fp.RetransmitAfter > 0 {
			n.rng = transport.NewJitter(n.addr)
		}
	}
	if r.sim != nil {
		var reg *obs.Registry // publishes lla_wire_* when observed
		if r.obsv != nil {
			reg = r.obsv.Metrics
		}
		return r.sim.run(r.nodes, c, WireCodec(r.p.Workload(), reg), r.obsv, r.stop)
	}

	var nodes, coord sync.WaitGroup
	errs := make(chan error, len(r.nodes)+1) // one slot per driven machine
	launch := func(wg *sync.WaitGroup, m machine, ep transport.Endpoint, stop <-chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := drive(m, ep, stop, r.obsv); err != nil {
				errs <- err
				r.Shutdown() // the others would wait on this machine forever
			}
		}()
	}
	launch(&coord, c, r.coordEp, nil)
	for i, m := range r.nodes {
		launch(&nodes, m, r.eps[i], r.stop)
	}
	// The coordinator reads until its endpoint closes, after every node has
	// joined.
	nodes.Wait()
	r.coordEp.Close()
	coord.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Standalone node entry points: each process compiles the problem locally
// and runs exactly one node's machine, so a deployment can spread resources
// and controllers across machines (cmd/lla-node). Standalone nodes send no
// coordinator reports — the deployment simply runs its fixed number of
// rounds — and use the default fault policy. runStandalone registers the
// node's endpoint and drives its machine for rounds rounds, until the
// protocol completes or ctx is cancelled (a graceful stop).
func runStandalone(ctx context.Context, net transport.Network, m machine, n *peer, rounds int, o *obs.Observer) error {
	if err := checkRounds(rounds); err != nil {
		return err
	}
	ep, err := net.Endpoint(n.addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	n.fp, n.rng, n.limit = DefaultFaultPolicy(), transport.NewJitter(n.addr), rounds
	return drive(m, ep, ctx.Done(), o)
}

// checkRounds refuses a run of no rounds, standalone or not.
func checkRounds(rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("dist: rounds must be positive, got %d", rounds)
	}
	return nil
}

// RunResource runs the price agent of one resource for the given number of
// rounds over the network and returns the final price. With an observer the
// node's counters increment live on its registry and the per-resource gauges
// refresh each completed round.
func RunResource(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, resourceID string, rounds int, o *obs.Observer) (float64, error) {
	p, cfg, err := compile(w, cfg)
	if err != nil {
		return 0, err
	}
	ri := slices.IndexFunc(p.Resources, func(r core.ProblemResource) bool { return r.ID == resourceID })
	if ri < 0 {
		return 0, fmt.Errorf("dist: unknown resource %q", resourceID)
	}
	n := newResourceNode(p, ri, cfg, addressesOf(p))
	n.observe(o)
	if err := runStandalone(ctx, net, n, &n.peer, rounds, o); err != nil {
		return 0, err
	}
	return n.mu, nil
}

// RunController runs the controller of one task for the given number of
// rounds and returns the final per-subtask latencies keyed by subtask name,
// and the final task utility.
func RunController(ctx context.Context, w *workload.Workload, cfg core.Config, net transport.Network, taskName string, rounds int, o *obs.Observer) (map[string]float64, float64, error) {
	p, cfg, err := compile(w, cfg)
	if err != nil {
		return nil, 0, err
	}
	tasks := p.Workload().Tasks
	ti := slices.IndexFunc(tasks, func(t *task.Task) bool { return t.Name == taskName })
	if ti < 0 {
		return nil, 0, fmt.Errorf("dist: unknown task %q", taskName)
	}
	inc := core.NewIncidence(p)
	n := newControllerNode(p, ti, inc.TaskResources(ti), cfg, addressesOf(p))
	n.reports, n.m = false, metricsFor(o)
	if err := runStandalone(ctx, net, n, &n.peer, rounds, o); err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(n.ctl.LatMs))
	for si, lat := range n.ctl.LatMs {
		out[tasks[ti].Subtasks[si].Name] = lat
	}
	return out, n.ctl.Utility(), nil
}

// Close releases all endpoints.
func (r *Runtime) Close() error {
	var first error
	for _, ep := range append(r.eps, r.coordEp) {
		if ep == nil {
			continue
		}
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Addresses returns the logical endpoint names a workload's deployment
// needs (controllers, resources, coordinator), for building transport
// registries.
func Addresses(w *workload.Workload) []string {
	out := []string{coordinatorAddr}
	for _, t := range w.Tasks {
		out = append(out, controllerAddr(t.Name))
	}
	for _, r := range w.Resources {
		out = append(out, resourceAddr(r.ID))
	}
	return out
}

// Address helpers: resources and controllers get deterministic names.
func resourceAddr(id string) string  { return "res/" + id }
func controllerAddr(t string) string { return "ctl/" + t }

// coordinatorAddr is the runtime's aggregation endpoint.
const coordinatorAddr = "coordinator"

package core

import (
	"fmt"
	"math"
	"runtime"

	"lla/internal/obs"
	"lla/internal/par"
	"lla/internal/price"
	"lla/internal/task"
	"lla/internal/workload"
)

// StepPolicy configures the price step sizes (Section 5.2).
type StepPolicy struct {
	// Adaptive selects the paper's congestion-doubling heuristic; when
	// false the step size is fixed at Gamma.
	Adaptive bool
	// Gamma is the fixed step size, or the adaptive policy's base value.
	// The adaptive ramp is capped at price.DefaultAdaptiveMax.
	Gamma float64
}

// InitialMu is every resource's starting price: the engine's, a distributed
// resource node's, and the floor admission prices newcomers at.
const InitialMu = 1

// Config configures an Engine.
type Config struct {
	// WeightMode selects the utility variant of Section 3.2 (default:
	// path-weighted).
	WeightMode task.WeightMode
	// Step configures the price step sizes (default: adaptive with base 1,
	// the paper's best-performing setting).
	Step StepPolicy
	// Workers sets how many shards Step fans the per-task controller work
	// across: 0 (or negative) uses GOMAXPROCS, 1 runs everything on the
	// calling goroutine (the serial path). Controllers only read the
	// previous iteration's resource state, and the per-resource share sums
	// are reduced serially in a fixed subtask order, so every worker count
	// produces bitwise-identical results.
	Workers int
	// PriceSolver selects the resource-price dynamics (DESIGN.md §12):
	// price.SolverNewton (the default) takes diagonal-Newton steps on the
	// curvature the demand reduction already yields; price.SolverGradient is
	// the paper's gradient projection with the Section 5.2 doubling
	// heuristic. Every solver reaches the same fixed point; only the resource
	// half of the dual update is pluggable — path prices always take the
	// paper's gradient steps.
	PriceSolver price.Solver
}

// WithDefaults returns the config with every unset field filled with the
// paper's default. Exported so the other runtimes (internal/dist) share this
// single source of truth instead of mirroring the defaults.
func (c Config) WithDefaults() Config {
	if c.WeightMode == 0 {
		c.WeightMode = task.WeightPathNormalized
	}
	if c.Step.Gamma == 0 {
		c.Step = StepPolicy{Adaptive: true, Gamma: 1}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PriceSolver == "" {
		c.PriceSolver = price.SolverNewton
	}
	return c
}

// NewDynamics builds the configured price dynamics over the config's
// StepPolicy. It is the single source of truth for the resource-price
// dynamics: every runtime constructs its own here, so a config produces
// identical price trajectories in all of them (path step sizes are plain
// numbers advanced by the same policy in Controller.Solve). Call on a config
// that has been through WithDefaults, and call Reset on the result before
// the first Step.
func (c Config) NewDynamics() *price.Dynamics {
	return price.NewDynamics(c.PriceSolver, c.Step.Gamma, c.Step.Adaptive)
}

// Engine drives LLA synchronously: one Step performs a full iteration —
// latency allocation at every task controller followed by price computation
// at every resource (Section 4.1). The engine is the vehicle for the
// paper's simulation experiments and the reference implementation the
// distributed runtime is tested against.
type Engine struct {
	p   *Problem
	cfg Config

	// Optimizer state, flat and aligned with the problem's arrays (DESIGN.md
	// §6): latency and share per subtask, price and step size per path, price
	// per resource. Task ti's controller is a view of its windows of the
	// first four (Controller); dyn steps the prices.
	lat, shares   []float64
	lambda, gamma []float64
	price         []float64
	dyn           *price.Dynamics

	iter int
	// shareSums and congested cache the previous iteration's resource
	// state; controllers consume it for the adaptive path-step heuristic.
	// inner is the same reduction over each resource's interior subtasks
	// only — the numerator of its curvature (Curvature).
	shareSums, inner []float64
	congested        []bool

	// mu is the reused per-Step snapshot of resource prices; taking it
	// before the controller phase is what lets shards run against a frozen
	// previous-iteration view. Each shard leaves its tasks' shares in
	// shares, and the serial reduction sums them per resource in compiled
	// subtask order so the result is bitwise-independent of the worker
	// count.
	mu []float64
	// nshards is the resolved shard count (Config.Workers clamped to the
	// task count, at least 1).
	nshards int
	// pool holds the parked shard workers and shard is the bound runShard
	// they call; both nil until the first parallel Step and whenever
	// nshards == 1. They are bound together: ReplaceWorkload overwrites the
	// engine with one that has never stepped, so neither can go stale.
	pool  *par.Pool
	shard func(int)

	// Active-set state (sparse.go). inc is the once-built CSR incidence
	// index; fpMu/fpCong hold each controller's input fingerprint (aligned
	// with inc.taskRes); the bool vectors carry the per-controller and
	// per-resource fixed-point flags; shardSkipped is the per-shard skip
	// tally folded into sstats after the join.
	inc          Incidence
	fpMu         []float64
	fpCong       []bool
	ctlSolved    []bool
	ctlStable    []bool
	latChanged   []bool
	priceStable  []bool
	sumValid     []bool
	shardSkipped []uint64
	sstats       SparseStats

	// dynDelta is the last round's largest |Δμ| (the residual-trajectory
	// gauge).
	dynDelta float64

	// Pinned-price state (pin.go). pinned is nil until the first PinPrice —
	// standalone engines pay one nil-check per resource phase. A pinned
	// resource's price is owned externally (the fleet boundary aggregator):
	// the resource phase still reduces its demand but never moves its price,
	// and its congestion flag is the externally supplied one.
	pinned     []bool
	pinnedCong []bool
	// pinEpoch counts pin-state changes: it advances whenever a PinPrice
	// actually moves a pinned value (price or congestion bit) and on every
	// UnpinPrice. A caller that recorded the epoch at its last sweep can
	// prove "no pinned input changed since" with one integer compare — the
	// fleet's shard-level active set rests on it.
	pinEpoch uint64

	// certCursor is Certify's witness cursor: the resource (< len(price)) or
	// task (offset by len(price)) that failed the last check, which the next
	// check re-tests first. cert is the pooled scan's scratch, nil until the
	// first pooled Certify (so, like shard, never stale after
	// ReplaceWorkload). Scratch only — neither changes a verdict.
	certCursor int
	cert       *certScan

	// obsv holds the attached observability channels (nil = disabled); the
	// hot path pays one nil-check per Step when nothing is attached.
	obsv *obsHandles
}

// NewEngine validates the workload, compiles it and sets up the cold state.
func NewEngine(w *workload.Workload, cfg Config) (*Engine, error) {
	ck, err := w.Check()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewEngineChecked(ck, cfg)
}

// NewEngineChecked is NewEngine on a workload that comes with its proof of
// validity: nothing is validated or resolved by name again.
func NewEngineChecked(ck *workload.Checked, cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if _, err := price.ParseSolver(string(cfg.PriceSolver)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p, err := compile(ck, cfg.WeightMode)
	if err != nil {
		return nil, err
	}
	nr := len(p.Resources)
	e := &Engine{
		p:         p,
		cfg:       cfg,
		shareSums: make([]float64, nr),
		inner:     make([]float64, nr),
		congested: make([]bool, nr),
		mu:        make([]float64, nr),
		price:     make([]float64, nr),
		dyn:       cfg.NewDynamics(),
		nshards:   resolveShards(cfg.Workers, len(p.Tasks)),
	}
	nsub, npaths := p.NumSubtasks(), len(p.wMin)
	state := make([]float64, 2*nsub+2*npaths)
	e.lat, e.shares = state[:nsub:nsub], state[nsub:2*nsub:2*nsub]
	e.lambda, e.gamma = state[2*nsub:2*nsub+npaths:2*nsub+npaths], state[2*nsub+npaths:]
	for ti := range p.Tasks {
		c := e.Controller(ti)
		c.reset()
	}
	for ri := range e.price {
		e.price[ri] = InitialMu
	}
	e.dyn.Reset(nr)
	e.initSparse()
	e.refreshResourceState()
	return e, nil
}

// Problem exposes the compiled problem (read-only use).
func (e *Engine) Problem() *Problem { return e.p }

// Controller returns the controller of task ti: a view, built on the spot,
// of the task's windows of the engine's flat state.
func (e *Engine) Controller(ti int) Controller {
	var c Controller
	e.controllerInto(&c, ti)
	return c
}

// controllerInto makes *c the controller of task ti. Step's loop over tasks
// refills one Controller this way rather than copy a fresh one per task.
func (e *Engine) controllerInto(c *Controller, ti int) {
	p := e.p
	lo, hi, plo, phi := p.subOff[ti], p.subOff[ti+1], p.pathOff[ti], p.pathOff[ti+1]
	c.p, c.ti, c.step = p, ti, e.cfg.Step
	c.LatMs, c.shares = e.lat[lo:hi:hi], e.shares[lo:hi:hi]
	c.Lambda, c.gamma = e.lambda[plo:phi:phi], e.gamma[plo:phi:phi]
}

// Iteration returns the number of completed iterations.
func (e *Engine) Iteration() int { return e.iter }

// taskLat returns task ti's window of the latency vector.
func (e *Engine) taskLat(ti int) []float64 { return e.lat[e.p.subOff[ti]:e.p.subOff[ti+1]] }

// demand reduces resource ri's total demanded share from the per-subtask
// share cache, in compiled subtask order — so the sum is bitwise the same no
// matter how many workers produced the values — and, in the same pass, the
// shares of its interior subtasks: the numerator of its curvature. A cached
// share is negated while its subtask is bound-active (flagged), so the pass
// reads nothing else.
func (e *Engine) demand(ri int) (sum, inner float64) {
	for _, g := range e.p.Resources[ri].Subs {
		s := e.shares[g]
		a := math.Abs(s)
		sum += a
		inner += (s + a) * 0.5 // s when interior, exactly 0 when bound-active
	}
	return sum, inner
}

// Curvature is a resource's demand response −∂(Σ share)/∂μ at price mu from
// the summed shares of its interior subtasks (Problem.Interior): on the
// stationarity solution (Equation 7) lat − e = sqrt(μ·k/denom), so each
// interior share is sqrt(k·denom/μ) and responds as −share/(2μ) — the
// closed-form diagonal of the dual Hessian. Bound-active subtasks and free
// resources do not respond. Every runtime derives it here from the same
// reduction as the demand, so their trajectories agree bit for bit.
func Curvature(inner, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	return inner / (2 * mu)
}

// refreshResourceState re-evaluates every share from the current latencies
// and recomputes the cached share sums and congestion flags. Its callers
// install state wholesale (construction, CarryFrom and with it
// ReplaceWorkload), so it also drops every cached fixed point; a change
// confined to one resource goes through refreshResource.
func (e *Engine) refreshResourceState() {
	for ti := range e.p.Tasks {
		lo, hi := e.p.subOff[ti], e.p.subOff[ti+1]
		e.p.sharesInto(e.shares[lo:hi], ti, e.lat[lo:hi], true)
	}
	for ri := range e.price {
		e.shareSums[ri], e.inner[ri] = e.demand(ri)
		e.congested[ri] = e.congestion(ri)
	}
	e.invalidateSparse()
}

// refreshResource is refreshResourceState confined to what a change on
// resource ri — its availability, or the share function or bounds of a
// subtask on it — can reach. It re-caches the shares of ri's subtasks (a
// bound change may flip a flag), re-reduces ri's demand and curvature
// numerator, and drops the fixed points of the controllers incident to ri
// only. Everything else it keeps is what the global refresh would recompute
// bit for bit: every other share is its latency's under unchanged bounds, and
// every other resource's reduction is over those shares. The congestion
// flags, every price fixed point and the dynamics' history are O(resources)
// and stay global — each flag is re-derived from its cached sum, as the
// global refresh does, in case its resource was unpinned since its last
// reduction — so no skipped coordinate straddles the reset and the
// trajectory is the global refresh's.
func (e *Engine) refreshResource(ri int) {
	p := e.p
	for _, g := range p.Resources[ri].Subs {
		e.shares[g] = flagged(p.ShareAt(g, e.lat[g]), e.lat[g], p.latMin[g], p.latMax[g])
	}
	e.shareSums[ri], e.inner[ri] = e.demand(ri)
	for r := range e.congested {
		e.congested[r] = e.congestion(r)
	}
	for _, ti := range e.inc.resTask[e.inc.resTaskOff[ri]:e.inc.resTaskOff[ri+1]] {
		e.ctlSolved[ti], e.ctlStable[ti], e.latChanged[ti] = false, false, true
	}
	clear(e.priceStable)
	e.dyn.Invalidate()
}

// congestion is resource ri's congestion flag for its cached demand: the
// externally supplied one while its price is pinned (pin.go).
func (e *Engine) congestion(ri int) bool {
	if e.PinnedAt(ri) {
		return e.pinnedCong[ri]
	}
	return e.p.Resources[ri].Congested(e.shareSums[ri])
}

// Step performs one full LLA iteration: each controller refreshes its path
// prices (Equation 9) and re-solves its latencies against the current
// resource prices (Equation 7); then each resource agent re-prices its
// capacity from the new demand (Equation 8). Work whose inputs and state are
// bitwise what they were at a proven fixed point is skipped, which changes
// no bit of the result (sparse.go).
//
// The controller phase fans out across nshards contiguous task ranges:
// controllers are independent given the frozen mu/congested snapshot, so
// shards never touch shared mutable state. Each shard also evaluates its
// tasks' share functions into the engine scratch; the resource phase then
// reduces those values serially in compiled subtask order, which makes the
// arithmetic — and therefore the whole trajectory — bitwise-identical for
// every worker count. Steady-state Steps perform no heap allocation.
func (e *Engine) Step() {
	copy(e.mu, e.price)
	if e.nshards > 1 {
		pool := e.workerPool()
		pool.Run(e.nshards, e.shard)
	} else {
		e.runShard(0)
	}
	e.resourcePhase()
	e.iter++
	if e.obsv != nil {
		e.publishObs()
	}
}

// resourcePhase reduces each resource's demand and curvature from the
// per-subtask shares and steps its price through the Dynamics. A resource is
// clean — its cached sum, curvature, congestion flag and price are reused
// verbatim — when a previous reduction populated the cache (sumValid), its
// last executed step was a bitwise no-op (priceStable: neither the price nor
// the solver's state for it moved), and no contributing task re-solved with
// changed latencies this Step (resourceDirty). Recomputing would then
// reproduce every cached bit: the shares of skipped tasks are what their last
// executed solve wrote, so the reduction would return the cached sums and the
// fixed-point step the cached price. Every solver is coordinate-separable, so
// skipping a coordinate leaves the others' steps untouched.
//
// A pinned price (pin.go) is externally owned: the reduction refreshes its
// demand, the price stays, the congestion flag is the supplied one — a no-op
// update, hence a bitwise fixed point, so a pinned resource goes clean as
// soon as its contributors freeze.
func (e *Engine) resourcePhase() {
	var clean uint64
	maxd := 0.0
	for ri, mu := range e.price {
		if e.sumValid[ri] && e.priceStable[ri] && !e.resourceDirty(ri) {
			clean++
			continue
		}
		sum, inner := e.demand(ri)
		e.shareSums[ri], e.inner[ri] = sum, inner
		moved := false
		if e.pinned != nil && e.pinned[ri] {
			e.congested[ri] = e.pinnedCong[ri]
		} else {
			r := &e.p.Resources[ri]
			cong := r.Congested(sum)
			e.price[ri], moved = e.dyn.StepAt(ri, mu, sum, r.Availability, Curvature(inner, mu), cong)
			e.congested[ri] = cong
			maxd = max(maxd, math.Abs(e.price[ri]-mu))
		}
		e.sumValid[ri], e.priceStable[ri] = true, !moved
	}
	e.dynDelta = maxd
	var skipped uint64
	for _, n := range e.shardSkipped {
		skipped += n
	}
	e.sstats.Iterations++
	e.sstats.SkippedSolves += skipped
	e.sstats.ExecutedSolves += uint64(len(e.p.Tasks)) - skipped
	e.sstats.CleanResources += clean
	e.sstats.RepricedResources += uint64(len(e.price)) - clean
}

// PriceSolver returns the configured price-dynamics solver.
func (e *Engine) PriceSolver() price.Solver { return e.cfg.PriceSolver }

// SolverFallbacks returns the cumulative safeguard-fallback count of the
// configured price dynamics (0 for the reference gradient solver, which
// never falls back).
func (e *Engine) SolverFallbacks() uint64 { return e.dyn.Fallbacks() }

// runShard executes the controller phase for shard w's contiguous task
// range against the frozen e.mu/e.congested snapshot, leaving the resulting
// share values in e.shares for the serial reduction.
//
// A controller's solve is skipped when its previous executed solve changed
// nothing (ctlStable: latencies, path prices and step sizes all came out
// bitwise-unchanged) and the prices it observes are bitwise-identical to that
// solve's fingerprint — re-running the solve would reproduce its state and
// its shares scratch row verbatim. Shards only touch their own tasks' flags,
// so the parallel dispatch stays race-free, and the skip decision depends
// only on frozen per-Step inputs, so it is identical under every worker
// count.
func (e *Engine) runShard(w int) {
	nt := len(e.p.Tasks)
	lo, hi := w*nt/e.nshards, (w+1)*nt/e.nshards
	var skipped uint64
	var c Controller
	for ti := lo; ti < hi; ti++ {
		if e.ctlSolved[ti] && e.ctlStable[ti] && e.fingerprintClean(ti) {
			e.latChanged[ti] = false
			skipped++
			continue
		}
		e.controllerInto(&c, ti)
		priceChanged, latChanged := c.Solve(e.mu, e.congested)
		e.latChanged[ti] = latChanged
		e.ctlStable[ti] = !priceChanged && !latChanged
		e.ctlSolved[ti] = true
		if e.ctlStable[ti] {
			// Only a stable solve's fingerprint is ever read back, and the
			// price view is frozen for the whole controller phase.
			e.recordFingerprint(ti)
		}
	}
	e.shardSkipped[w] = skipped
}

// resolveShards maps Config.Workers to the effective shard count.
func resolveShards(workers, numTasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numTasks {
		workers = numTasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Workers returns the effective shard count of the parallel controller
// phase (1 means the fully serial path).
func (e *Engine) Workers() int { return e.nshards }

// Close retires the engine's parked shard workers. It is safe to call
// multiple times, and the engine remains usable afterwards — the next
// parallel Step simply respawns the pool. Engines abandoned without Close
// are cleaned up by the pool's finalizer, but long-lived programs that churn
// through engines should Close them promptly.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool, e.shard = nil, nil
	}
}

// Run executes n iterations, invoking record (if non-nil) after each with
// the fresh snapshot.
func (e *Engine) Run(n int, record func(Snapshot)) {
	for i := 0; i < n; i++ {
		e.Step()
		if record != nil {
			record(e.Snapshot())
		}
	}
}

// The certificate every decision path stops on — admission, the closed
// loop, the experiments, lla-node and dist's RunUntilKKT: the worst Eq. 7
// residual below StopKKTTol and every constraint violation below StopTol for
// StopWindow consecutive iterations.
const (
	StopKKTTol = 1e-9
	StopTol    = 1e-6
	StopWindow = 3
)

// RunUntilKKT iterates until the point is a certified stationary point: the
// worst normalized Equation 7 residual over interior subtasks stays below
// kktTol for window consecutive iterations while no constraint is violated
// beyond tol, or until maxIters. It returns the final snapshot and whether
// convergence was reached.
//
// It is the one stopping rule: every decision path stops here at the Stop
// constants, or on the same certificate graded per round (dist's
// RunUntilKKT).
//
// Each iteration is graded by Certify, which stops at the first witness, so
// the iterations that are not yet stationary — nearly all of them — pay
// O(1) tasks for the test rather than a dense pass; the capacity check
// covers the resources whose price the engine owns (all of them, unless
// prices are pinned).
func (e *Engine) RunUntilKKT(maxIters int, kktTol float64, window int, tol float64) (Snapshot, bool) {
	if maxIters <= 0 || window <= 0 {
		return Snapshot{}, false
	}
	for i, passed := 0, 0; i < maxIters; i++ {
		e.Step()
		if _, ok := e.Certify(kktTol, tol); !ok {
			passed = 0
		} else if passed++; passed >= window {
			s := e.Snapshot()
			e.emit(obs.Event{Kind: obs.EventConverged, Iteration: s.Iteration, Value: s.Utility})
			return s, true
		}
	}
	return e.Snapshot(), false
}

// SetAvailability changes a resource's availability B_r at runtime (resource
// variation, e.g. partial failure or reservation change) and refreshes the
// latency bounds of every subtask on it. The optimizer adapts over the
// following iterations; prices are left untouched so adaptation is
// incremental, as in the paper's continuously-running deployment.
// Like SetErrorMs and SetMinShare it must be called from the goroutine
// driving Step: shard workers only run inside a Step, so changes applied
// between Steps are published to them by the next dispatch.
func (e *Engine) SetAvailability(resourceID string, availability float64) error {
	if !(availability > 0 && availability <= 1) { // accepting form: NaN fails it
		return fmt.Errorf("core: availability %v outside (0,1]", availability)
	}
	ri := e.ResourceIndex(resourceID)
	if ri < 0 {
		return fmt.Errorf("core: unknown resource %q", resourceID)
	}
	e.p.Resources[ri].Availability = availability
	for _, g := range e.p.Resources[ri].Subs {
		e.p.refreshBounds(e.p.SubtaskAt(g))
	}
	e.refreshResource(ri)
	e.emit(obs.Event{Kind: obs.EventWorkloadChange, Iteration: e.iter,
		Resource: resourceID, Detail: "availability", Value: availability})
	return nil
}

// SetErrorMs installs the additive model-error correction for one subtask
// (Section 6.3): the share model becomes share = (c+l)/(lat − errMs).
func (e *Engine) SetErrorMs(taskName, subtaskName string, errMs float64) error {
	if math.IsNaN(errMs) || math.IsInf(errMs, 0) {
		return fmt.Errorf("core: error correction %v is not finite", errMs)
	}
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return err
	}
	e.p.Tasks[ti].ErrMs[si] = errMs
	e.p.refreshBounds(ti, si)
	e.refreshResource(int(e.p.Tasks[ti].Res[si]))
	e.emit(obs.Event{Kind: obs.EventWorkloadChange, Iteration: e.iter,
		Task: taskName, Subtask: subtaskName, Detail: "err_ms", Value: errMs})
	return nil
}

// SetMinShare changes a subtask's minimum-share floor at runtime (workload
// variation: a rate change shifts the share needed to keep queues bounded).
func (e *Engine) SetMinShare(taskName, subtaskName string, minShare float64) error {
	if !(minShare >= 0 && minShare <= 1) {
		return fmt.Errorf("core: min share %v outside [0,1]", minShare)
	}
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return err
	}
	e.p.src.Tasks[ti].Subtasks[si].MinShare = minShare
	e.p.refreshBounds(ti, si)
	e.refreshResource(int(e.p.Tasks[ti].Res[si]))
	e.emit(obs.Event{Kind: obs.EventWorkloadChange, Iteration: e.iter,
		Task: taskName, Subtask: subtaskName, Detail: "min_share", Value: minShare})
	return nil
}

// workerPool returns the parked shard workers, spawning them on first use
// together with shard, the bound runShard Step hands them; Certify's ranges
// run on the same pool.
func (e *Engine) workerPool() *par.Pool {
	if e.pool == nil {
		e.pool, e.shard = par.New(e.nshards-1), e.runShard
	}
	return e.pool
}

// findSubtask resolves names to compiled indices.
func (e *Engine) findSubtask(taskName, subtaskName string) (int, int, error) {
	ti, ok := e.p.taskIdx[taskName]
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown task %q", taskName)
	}
	for si, n := range e.p.Tasks[ti].SubtaskNames {
		if n == subtaskName {
			return ti, si, nil
		}
	}
	return 0, 0, fmt.Errorf("core: task %s has no subtask %q", taskName, subtaskName)
}

// KKTResidualsInto measures how far the current point is from stationarity:
// for every subtask whose latency is strictly inside its bounds, the
// residual of Equation 7 normalized by the price scale. Near the optimum
// these vanish. It appends them to dst[:0] and returns the extended slice,
// reusing dst's capacity so repeated calls with the returned buffer are
// allocation-free once it has grown to the interior-subtask count.
func (e *Engine) KKTResidualsInto(dst []float64) []float64 {
	return e.kktScan(kktFold{all: dst[:0], collect: true}).all
}

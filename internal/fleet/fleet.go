package fleet

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/par"
	"lla/internal/price"
	"lla/internal/workload"
)

// Config configures a sharded fleet.
type Config struct {
	// Shards is the shard count K (>= 1; clamped to the task count).
	Shards int
	// Seed drives the partitioner's refinement order.
	Seed int64

	// ShardWorkers is the number of shards built and swept concurrently
	// (0 = min(Shards, GOMAXPROCS), 1 = serial). Results are bitwise
	// identical at every setting: builds and sweeps touch disjoint shard
	// state and the boundary reduction over the sweeps is serial in ascending
	// shard order, so the schedule cannot reach the arithmetic (SHARDING.md).
	ShardWorkers int

	// Engine configures every shard engine (zero value = paper defaults).
	// The fleet is the same optimization as one engine over the full
	// workload: each shard runs these dynamics on its sub-problem with the
	// boundary prices pinned. When ShardWorkers > 1 and Engine.Workers is
	// left 0, each shard engine gets GOMAXPROCS/ShardWorkers workers instead
	// of the engine default (GOMAXPROCS) so concurrent sweeps do not
	// oversubscribe the machine — bitwise-safe, engines are worker-count
	// invariant.
	Engine core.Config

	// LocalIters caps one shard sweep (0 = 400, negative is an error).
	// Otherwise a sweep stops after window consecutive Steps certify at
	// kktTol and tol.
	LocalIters int
	// localFreeze makes sweeps run to the bitwise frozen fixed point (every
	// Step a no-op) instead of the KKT window — the mode the bitwise
	// single-engine equivalence tests set. It requires Engine.PriceSolver to
	// be the gradient, the one solver whose shards provably freeze: New
	// refuses the combination rather than let every sweep burn LocalIters.
	localFreeze bool

	// MaxRounds caps aggregator rounds (0 = 300, negative is an error).
	MaxRounds int

	// RecordHashes captures every shard's FNV-1a state hash after each
	// round into Result.ShardHashes, and the per-round boundary residual
	// into Result.BoundaryResiduals (the determinism certificate).
	RecordHashes bool

	// Observer receives lla_fleet_* metrics and fleet trace events (nil =
	// disabled).
	Observer *obs.Observer
}

// The fleet's stopping rule. A round certifies when the worst shard-local
// KKT residual is below kktTol, every shard's constraint violations below
// tol, and the boundary residual — relative overload and relative price
// movement — below boundaryTol; the run converges after window consecutive
// certified rounds. A shard sweep uses the same kktTol, tol and window over
// its Steps.
const (
	kktTol      = 1e-6
	tol         = 1e-6
	boundaryTol = 1e-6
	window      = 2
)

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.LocalIters == 0 {
		c.LocalIters = 400
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 300
	}
	return c
}

// Result summarizes one fleet run.
type Result struct {
	// Converged reports whether the certification held for window
	// consecutive rounds before MaxRounds.
	Converged bool
	// Rounds is the number of aggregator rounds executed; LocalIters the
	// total shard engine iterations they consumed.
	Rounds, LocalIters int
	// SweptShards and SkippedShards total, over the run's rounds, the shard
	// sweeps executed and the sweeps skipped because the shard sat at a
	// proven fixed point under unchanged pinned prices. ShardWorkers is the
	// resolved sweep concurrency.
	SweptShards   int
	SkippedShards int
	ShardWorkers  int
	// KKTMax is the worst shard-local KKT residual at exit;
	// BoundaryResidual the worst boundary residual (relative overload /
	// relative price movement).
	KKTMax           float64
	BoundaryResidual float64
	// BoundaryFallbacks counts, over the run's rounds, the boundary
	// coordinates that took the gradient safeguard because their Newton model
	// was degenerate — the first thing to read when Rounds balloons.
	BoundaryFallbacks uint64
	// Utility is the global aggregate utility (sum over shards).
	Utility float64
	// BoundaryCount and CutCost describe the partition.
	BoundaryCount int
	CutCost       int
	// ShardHashes[r][s] is shard s's state hash after round r, and
	// BoundaryResiduals[r] the round's boundary residual (only with
	// Config.RecordHashes).
	ShardHashes       [][]uint64
	BoundaryResiduals []float64
}

// Stats totals the fleet's lifetime round and sweep counters, across Run and
// Round calls and surviving ReplaceWorkload.
type Stats struct {
	// Rounds is the number of aggregator rounds executed so far.
	Rounds int
	// Swept and Skipped count shard sweeps executed and skipped.
	Swept, Skipped int
}

// Fleet is the hierarchical runtime: K shard engines under one boundary
// price aggregator. The aggregator owns the prices of the cross-shard
// resources (pinned in every shard that touches them) and iterates only
// that vector; everything else converges inside the shards.
type Fleet struct {
	cfg      Config
	shardCfg core.Config
	// ck is the current workload with the proof of its validity: what every
	// shard is projected from and what ReplaceWorkload checks a successor
	// against. taskAt maps a task name to its index in that workload (and so,
	// through part, to its shard): built by its one reader, ReplaceWorkload,
	// which keeps both current.
	ck     *workload.Checked
	part   *Partition
	shards []*shardRuntime
	taskAt map[string]int

	// workers is the resolved shard concurrency; pool, created on first use
	// by run, the one set of workers-1 parked goroutines that builds shard
	// engines (New, ReplaceWorkload) and sweeps them; sweepDue the bound
	// sweep function, created on the first round.
	workers  int
	pool     *par.Pool
	sweepDue func(int)
	due      []*shardRuntime // reusable per-round list of non-skipped shards

	// Boundary state, indexed by boundary slot (aligned with
	// part.Boundary): resource ID, capacity, the aggregator's price
	// iterate, the aggregated demand and curvature of the last round, the
	// externally owned congestion flags, and the last update's relative
	// per-coordinate movement. bprev is the iterate the last update stepped
	// from (zero before one since the last bind) and bpdemand the demand it
	// read there, persistent so steady-state rounds allocate nothing.
	bid      []string
	bavail   []float64
	bmu      []float64
	bdemand  []float64
	bcurv    []float64
	bcong    []bool
	bmove    []float64
	bprev    []float64
	bpdemand []float64

	// bdyn is diagonal Newton over the shard-summed demand and curvature (a
	// field so an in-package test can install the gradient oracle).
	bdyn *price.Dynamics

	// stable counts consecutive certified rounds; stats the lifetime
	// counters; hashLog/residLog the RecordHashes determinism certificate
	// (Run slices off its own suffix).
	stable   int
	stats    Stats
	hashLog  [][]uint64
	residLog []float64

	obsv *obs.Observer
	fm   *obs.FleetMetrics
}

// New validates and partitions the workload, builds one engine per shard —
// the only place a task is compiled — seeds every resource price with the
// relaxed dual optimum and pins every boundary resource to its seed. Shard
// engines share the workload's *task.Task values: the caller must not modify
// a workload it has handed to the fleet.
func New(w *workload.Workload, cfg Config) (*Fleet, error) {
	ck, err := w.Check()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return build(ck, cfg)
}

// buildShards builds on the fleet's pool the engine of each shard s with
// only[s] (nil: all) over tasks[s], projected from the proof, and carries
// f's donors into it when prev is non-nil; when prev is nil the engines are
// cold and the job also takes their price roots (seedPrices). A job writes
// only its own slots; on failure every engine built is closed and the lowest
// shard's error returned.
func (f *Fleet) buildShards(ck *workload.Checked, tasks [][]int, only []bool, prev []int) ([]*core.Engine, [][]float64, error) {
	engines, roots, errs := make([]*core.Engine, len(tasks)), make([][]float64, len(tasks)), make([]error, len(tasks))
	f.run(len(tasks), func(s int) {
		if only != nil && !only[s] {
			return
		}
		eng, err := core.NewEngineChecked(ck.Project(fmt.Sprintf("%s/shard%d", ck.Workload().Name, s), tasks[s]), f.shardCfg)
		if err == nil && prev != nil {
			eng.CarryFrom(f.donors(s, tasks[s], prev)...)
		} else if err == nil {
			roots[s] = eng.PriceRoots()
		}
		engines[s], errs[s] = eng, err
	})
	for s, err := range errs {
		if err != nil {
			for _, eng := range engines {
				if eng != nil {
					eng.Close()
				}
			}
			return nil, nil, fmt.Errorf("fleet: building shard %d: %w", s, err)
		}
	}
	return engines, roots, nil
}

// seedPrices starts cold shard engines at the relaxed dual optimum
// (SHARDING.md §3): each resource's root sum (core.Engine.PriceRoots),
// reduced over the shards in ascending order, fixes μ_r = (root_r/B_r)², the
// price at which r's demand meets B_r while no path constraint binds. A
// resource no utility presses on (root 0) keeps core.InitialMu.
func seedPrices(engines []*core.Engine, roots [][]float64) {
	n := 0
	for _, r := range roots {
		n += len(r)
	}
	total := make(map[string]float64, n)
	for s, eng := range engines {
		for ri, r := range eng.Problem().Resources {
			total[r.ID] += roots[s][ri]
		}
	}
	for s, eng := range engines {
		mu := roots[s]
		for ri, r := range eng.Problem().Resources {
			mu[ri] = core.InitialMu
			if root := total[r.ID]; root > 0 {
				mu[ri] = min((root/r.Availability)*(root/r.Availability), price.MaxPrice)
			}
		}
		eng.SeedPrices(mu)
	}
}

// run calls fn(0) … fn(n-1) on the fleet's pool, created on first use.
func (f *Fleet) run(n int, fn func(int)) {
	if f.pool == nil {
		f.pool = par.New(f.workers - 1)
	}
	f.pool.Run(n, fn)
}

// build is New on a workload that has already been checked.
func build(ck *workload.Checked, cfg Config) (*Fleet, error) {
	if cfg.MaxRounds < 0 {
		return nil, fmt.Errorf("fleet: negative MaxRounds %d", cfg.MaxRounds)
	}
	if cfg.LocalIters < 0 {
		return nil, fmt.Errorf("fleet: negative LocalIters %d", cfg.LocalIters)
	}
	cfg = cfg.withDefaults()
	if s := cfg.Engine.WithDefaults().PriceSolver; cfg.localFreeze && s != price.SolverGradient {
		return nil, fmt.Errorf("fleet: a frozen sweep needs the gradient price solver, shards run %s", s)
	}
	part, err := NewPartition(ck, PartitionConfig{Shards: cfg.Shards, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, ck: ck, part: part, obsv: cfg.Observer}
	f.workers = cfg.ShardWorkers
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	f.workers = min(f.workers, part.Shards)
	f.shardCfg = cfg.Engine
	if f.workers > 1 && f.shardCfg.Workers == 0 {
		f.shardCfg.Workers = max(1, runtime.GOMAXPROCS(0)/f.workers)
	}

	engines, roots, err := f.buildShards(ck, part.ShardTasks, nil, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	seedPrices(engines, roots) // before the boundary binds: pins start at the seed
	for s, eng := range engines {
		f.shards = append(f.shards, &shardRuntime{id: s, eng: eng})
	}

	// The boundary vector takes diagonal-Newton steps whatever solver the
	// shard engines run: an aggregator round costs a sweep of the fleet, and
	// the curvature is in every shard's boundary report already. The
	// safeguard is the engines' reference gradient step, built from their
	// step policy.
	bcfg := cfg.Engine.WithDefaults()
	bcfg.PriceSolver = price.SolverNewton
	f.bdyn = bcfg.NewDynamics()
	if err := f.bindBoundary(ck.Workload(), part.Boundary, f); err != nil {
		f.Close()
		return nil, err
	}

	if f.obsv != nil && f.obsv.Metrics != nil {
		f.fm = obs.NewFleetMetrics(f.obsv.Metrics)
		f.fm.BoundaryResources.Set(float64(len(f.bid)))
		f.fm.CutCost.Set(float64(part.CutCost))
		f.fm.ShardWorkers.Set(float64(f.workers))
	}
	return f, nil
}

// bindBoundary makes boundary (resource indices of w, ascending) the fleet's:
// it sizes the vectors, warm-starts each price by resource ID — warm's iterate
// where the resource was on its boundary, else the price of the first shard
// engine holding it (a cold engine's is the initial one) — and re-pins every
// shard. On an engine that stays, unpinning a resource that left the boundary
// advances the pin epoch (the shard must re-solve with it free); pinning an
// unchanged (price, congestion) pair does not, so a shard the delta did not
// reach stays skippable and aggregates its real cached demand.
func (f *Fleet) bindBoundary(w *workload.Workload, boundary []int, warm *Fleet) error {
	prevMu, prevCong := make(map[string]float64, len(warm.bid)), make(map[string]bool, len(warm.bid))
	for b, id := range warm.bid {
		prevMu[id], prevCong[id] = warm.bmu[b], warm.bcong[b]
	}
	oldBid, nb := f.bid, len(boundary)
	f.bid, f.bcong = make([]string, nb), make([]bool, nb)
	for _, v := range []*[]float64{&f.bavail, &f.bmu, &f.bdemand, &f.bcurv, &f.bmove, &f.bprev, &f.bpdemand} {
		*v = make([]float64, nb)
	}
	onBoundary := make(map[string]bool, nb)
	for b, ri := range boundary {
		r := &w.Resources[ri]
		mu, ok := prevMu[r.ID]
		for s := 0; !ok && s < len(f.shards); s++ {
			if lri := f.shards[s].eng.ResourceIndex(r.ID); lri >= 0 {
				mu, ok = f.shards[s].eng.MuAt(lri), true
			}
		}
		f.bid[b], f.bavail[b], f.bmu[b], f.bcong[b] = r.ID, r.Availability, mu, prevCong[r.ID]
		onBoundary[r.ID] = true
	}
	for _, s := range f.shards {
		for j, b := range s.slot {
			if !onBoundary[oldBid[b]] {
				s.eng.UnpinPrice(s.localRi[j])
			}
		}
		s.localRi, s.slot = s.localRi[:0], s.slot[:0]
		for b, id := range f.bid {
			lri := s.eng.ResourceIndex(id)
			if lri < 0 {
				continue
			}
			s.localRi, s.slot = append(s.localRi, lri), append(s.slot, b)
			if err := s.eng.PinPrice(lri, f.bmu[b], f.bcong[b]); err != nil {
				return fmt.Errorf("fleet: pinning %s on shard %d: %w", id, s.id, err)
			}
		}
		s.demand, s.curv = make([]float64, len(s.slot)), make([]float64, len(s.slot))
		s.refreshBoundary()
	}
	f.bdyn.Reset(nb)
	return nil
}

// Partition exposes the fleet's task partition.
func (f *Fleet) Partition() *Partition { return f.part }

// Shards returns the effective shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Stats returns the fleet's lifetime round and sweep counters.
func (f *Fleet) Stats() Stats { return f.stats }

// Engine returns shard s's engine (read-only use: tests compare shard state
// against the single-engine reference).
func (f *Fleet) Engine(s int) *core.Engine { return f.shards[s].eng }

// Close retires the fleet's pool and every shard engine's worker pool. The
// fleet remains usable: pools respawn lazily on their next parallel use. A
// fleet dropped without Close leaks nothing either — each pool's finalizer
// retires its workers.
func (f *Fleet) Close() {
	if f.pool != nil {
		f.pool.Close()
		f.pool = nil
	}
	for _, s := range f.shards {
		s.eng.Close()
	}
}

// Run drives aggregator rounds until certification or MaxRounds. Each round
// sweeps every shard not at rest (concurrently, ShardWorkers at a time) to
// its local fixed point, aggregates the boundary demand and curvature, checks
// the certification, and — when not yet certified — advances the boundary
// price vector one Newton step and re-pins it everywhere.
func (f *Fleet) Run() (Result, error) {
	res := Result{BoundaryCount: len(f.bid), CutCost: f.part.CutCost, ShardWorkers: f.workers}
	f.stable = 0
	hashStart, residStart := len(f.hashLog), len(f.residLog)
	fallbacks := f.bdyn.Fallbacks()
	for res.Rounds < f.cfg.MaxRounds {
		info, err := f.round()
		res.Rounds++
		res.LocalIters += info.iters
		res.SweptShards += info.swept
		res.SkippedShards += info.skipped
		res.KKTMax, res.BoundaryResidual = info.kktMax, info.boundary
		if err != nil {
			return res, err
		}
		if info.converged {
			res.Converged = true
			break
		}
	}
	res.ShardHashes = f.hashLog[hashStart:]
	res.BoundaryResiduals = f.residLog[residStart:]
	res.BoundaryFallbacks = f.bdyn.Fallbacks() - fallbacks
	for _, s := range f.shards {
		res.Utility += s.probeUtility()
	}
	if f.fm != nil {
		f.fm.KKTMax.Set(res.KKTMax)
		f.fm.BoundaryResidual.Set(res.BoundaryResidual)
		if res.Converged {
			f.fm.Converged.Set(1)
		} else {
			f.fm.Converged.Set(0)
		}
	}
	if res.Converged {
		f.obsv.Emit(obs.Event{Kind: obs.EventFleetConverged, Round: res.Rounds, Value: res.KKTMax})
	}
	return res, nil
}

// Round executes one aggregator round against the current boundary iterate
// and reports whether the fleet is now certified-stable (the same condition
// that ends Run). Steady-state rounds — every shard skipped, RecordHashes
// off, no Observer — allocate nothing.
func (f *Fleet) Round() (bool, error) {
	info, err := f.round()
	return info.converged, err
}

// roundInfo is one round's outcome.
type roundInfo struct {
	iters, swept, skipped int
	// kktMax is the worst shard-local KKT residual, boundary the round's
	// boundary residual.
	kktMax, boundary float64
	converged        bool
}

// round runs one aggregator round: decide the active set, sweep it,
// aggregate, certify, and (unless certified-stable) advance the boundary.
func (f *Fleet) round() (roundInfo, error) {
	n := f.stats.Rounds
	var ri roundInfo

	// Active set: a shard at rest — its last sweep ended on its own stopping
	// rule and neither its pins (pin epoch) nor its engine have been touched
	// since — is skipped, and its cached boundary report and certificate
	// stand: they describe a state nothing has changed (SHARDING.md §3a).
	f.due = f.due[:0]
	for _, s := range f.shards {
		s.skip = s.atRest && s.eng.PinEpoch() == s.sweptEpoch
		if s.skip {
			s.iters = 0
			ri.skipped++
		} else {
			f.due = append(f.due, s)
			ri.swept++
		}
	}
	// Determinism does not depend on the schedule: each sweep reads and
	// writes only its own shard's engine and buffers.
	if f.sweepDue == nil {
		f.sweepDue = func(i int) { f.sweepShard(f.due[i]) }
	}
	f.run(len(f.due), f.sweepDue)
	// Serial reduction in ascending shard order, regardless of the sweep
	// schedule — the fleet's bitwise worker-count invariance.
	for _, s := range f.due {
		ri.iters += s.iters
	}

	f.aggregate()
	ri.kktMax, ri.boundary = f.residuals()
	if f.cfg.RecordHashes {
		hashes := make([]uint64, len(f.shards))
		for i, s := range f.shards {
			hashes[i] = s.stateHash()
		}
		f.hashLog, f.residLog = append(f.hashLog, hashes), append(f.residLog, ri.boundary)
	}
	feasible := !slices.ContainsFunc(f.shards, func(s *shardRuntime) bool {
		return s.cert.MaxResourceViolation >= tol || s.cert.MaxPathViolationFrac >= tol
	})
	f.publish(n, &ri)
	if ri.kktMax < kktTol && feasible && ri.boundary < boundaryTol {
		f.stable++
	} else {
		f.stable = 0
	}
	ri.converged = f.stable >= window

	f.stats.Rounds++
	f.stats.Swept += ri.swept
	f.stats.Skipped += ri.skipped

	if !ri.converged {
		if err := f.updateBoundary(); err != nil {
			return ri, err
		}
	}
	return ri, nil
}

// sweepShard runs one shard's sweep and refreshes its boundary report. Safe
// to run concurrently across distinct shards: it touches only the shard's
// own engine and buffers.
func (f *Fleet) sweepShard(s *shardRuntime) {
	s.sweep(f.cfg.LocalIters, f.cfg.localFreeze, kktTol, window, tol)
	s.sweptEpoch = s.eng.PinEpoch()
	s.refreshBoundary()
}

// aggregate sums each boundary resource's demand (and curvature) over the
// shards touching it — in ascending shard order, the serial reduction order
// a single engine's compiled Subs list induces on a cluster-ordered
// partition. Skipped shards contribute their cached report.
func (f *Fleet) aggregate() {
	clear(f.bdemand)
	clear(f.bcurv)
	for _, s := range f.shards {
		for j, b := range s.slot {
			f.bdemand[b] += s.demand[j]
			f.bcurv[b] += s.curv[j]
		}
	}
}

// residuals returns the worst shard-local KKT residual and the worst
// boundary residual: the larger of each boundary resource's relative
// overload max(0, (D−B)/B) and its last update's relative price movement.
func (f *Fleet) residuals() (kktMax, boundary float64) {
	for _, s := range f.shards {
		if s.cert.KKTMax > kktMax {
			kktMax = s.cert.KKTMax
		}
	}
	for b := range f.bid {
		if over := (f.bdemand[b] - f.bavail[b]) / f.bavail[b]; over > boundary {
			boundary = over
		}
		if f.bmove[b] > boundary {
			boundary = f.bmove[b]
		}
	}
	return kktMax, boundary
}

// updateBoundary advances the boundary price vector one dynamics step and
// pins the new prices (with the globally computed congestion flags) into
// every shard. Pinning an unchanged price does not advance a shard's pin
// epoch, so shards whose boundary did not move stay skippable.
//
// Once the fleet has measured a coordinate's demand at two prices since the
// last bind (before, the zero bprev makes the secant NaN), its step reads the
// elasticity measured between them, −Δln demand/Δln μ, in place of the
// shards' summed curvature, which leaves out how path and interior prices
// answer the boundary price; only a move beyond boundaryTol that lowered
// demand counts.
func (f *Fleet) updateBoundary() error {
	if len(f.bmu) == 0 {
		return nil
	}
	for b, mu := range f.bmu {
		f.bcong[b] = f.bdemand[b] > f.bavail[b]*(1+core.CongestionMargin)
		dlog := math.Log(mu / f.bprev[b])
		if e := math.Log(f.bpdemand[b]/f.bdemand[b]) / dlog; math.Abs(dlog) > boundaryTol && e > 0 && !math.IsInf(e, 1) {
			f.bcurv[b] = e * f.bdemand[b] / mu
		}
	}
	copy(f.bprev, f.bmu)
	copy(f.bpdemand, f.bdemand)
	fallbacks := f.bdyn.Fallbacks()
	f.bdyn.Step(price.StepInput{
		Mu:        f.bmu,
		ShareSums: f.bdemand,
		Avail:     f.bavail,
		Congested: f.bcong,
		Curvature: f.bcurv,
	})
	if f.fm != nil {
		f.fm.BoundaryFallbacks.Add(int64(f.bdyn.Fallbacks() - fallbacks))
	}
	for b := range f.bmu {
		f.bmove[b] = math.Abs(f.bmu[b]-f.bprev[b]) / math.Max(f.bprev[b], 1)
	}

	for _, s := range f.shards {
		if len(s.localRi) == 0 {
			continue
		}
		for j, b := range s.slot {
			if err := s.eng.PinPrice(s.localRi[j], f.bmu[b], f.bcong[b]); err != nil {
				return fmt.Errorf("fleet: re-pinning %s on shard %d: %w", f.bid[b], s.id, err)
			}
		}
		if f.fm != nil {
			f.fm.Broadcasts.Inc()
		}
	}
	return nil
}

// publish emits the per-round metrics and trace event.
func (f *Fleet) publish(round int, ri *roundInfo) {
	if f.fm != nil {
		f.fm.Rounds.Inc()
		f.fm.LocalIters.Add(int64(ri.iters))
		f.fm.ShardSweeps.Add(int64(ri.swept))
		f.fm.ShardSkips.Add(int64(ri.skipped))
	}
	f.obsv.Emit(obs.Event{Kind: obs.EventFleetRound, Round: round, Iteration: ri.iters,
		Value: ri.boundary, Swept: ri.swept, Skipped: ri.skipped, Workers: f.workers})
}

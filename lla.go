// Package lla is the public API of the LLA (Lagrangian Latency Assignment)
// library, a reproduction of "Online Optimization for Latency Assignment in
// Distributed Real-Time Systems" (Lumezanu, Bhola, Astley — ICDCS 2008).
//
// LLA assigns per-subtask latencies (equivalently, proportional-share
// resource fractions) to distributed end-to-end tasks so that the aggregate
// utility — a concave, non-increasing function of each task's latency — is
// maximized subject to per-resource capacity constraints and per-path
// critical-time (deadline) constraints. The optimization runs online and
// distributed: resources price their congestion, task controllers price
// their deadline slack, and both sides iterate by gradient projection.
//
// The facade re-exports what the programs in examples/ name:
//
//   - Task modeling: Task, Subtask, NewTask (builder), Periodic/Poisson/
//     Bursty triggers.
//   - Utility curves: Linear, ExpPenalty.
//   - Workloads: Workload, plus the paper's evaluation workloads
//     (BaseWorkload, PrototypeWorkload), replication scaling and a random
//     generator.
//   - The optimizer: NewEngine (synchronous) and the distributed runtime
//     (NewDistributed) over in-process or TCP transports.
//   - The simulator: NewSimulator, a discrete-event proportional-share world
//     for enacting and measuring assignments, and NewClosedLoop, which runs
//     the optimizer against it with online model error correction.
//   - Admission control with price-guided placement, and the offline
//     baselines LLA is compared against.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// mapping between the paper's sections and the packages.
package lla

import (
	"lla/internal/admit"
	"lla/internal/baseline"
	"lla/internal/closedloop"
	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/errcorr"
	"lla/internal/share"
	"lla/internal/sim"
	"lla/internal/task"
	"lla/internal/transport"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Task modeling.
type (
	// Task is an end-to-end task: subtasks, a precedence DAG, a trigger and
	// a critical time.
	Task = task.Task
	// Subtask is one stage of a task, consuming exactly one resource.
	Subtask = task.Subtask
)

// NewTask starts building a task with the given name and critical time
// (milliseconds).
func NewTask(name string, criticalMs float64) *task.Builder {
	return task.NewBuilder(name, criticalMs)
}

// Trigger constructors.
var (
	// Periodic returns a fixed-period trigger.
	Periodic = task.Periodic
	// Poisson returns a Poisson-arrival trigger.
	Poisson = task.Poisson
	// Bursty returns an on/off bursty trigger.
	Bursty = task.Bursty
)

// WeightPathNormalized weights subtasks by the fraction of paths through
// them: the paper's path-weighted utility variant (Section 3.2), and the
// default.
const WeightPathNormalized = task.WeightPathNormalized

// Utility curves.
type (
	// Curve maps aggregate latency to benefit; implementations must be
	// concave and non-increasing.
	Curve = utility.Curve
	// Linear is f(x) = K*C - x.
	Linear = utility.Linear
	// ExpPenalty is f(x) = A - B*(e^(x/Tau) - 1), a concave approximation
	// of an inelastic (hard-deadline) task.
	ExpPenalty = utility.ExpPenalty
)

// Resource is a schedulable CPU or network link with availability B_r and
// proportional-share lag l_r.
type Resource = share.Resource

// Resource kinds.
const (
	// CPU labels a processing resource.
	CPU = share.CPU
	// Link labels a network-bandwidth resource.
	Link = share.Link
)

// Config configures the optimizer (weight mode, step policy, parallelism,
// ...). Config.Workers selects the iteration's shard count: 0 = GOMAXPROCS,
// 1 = fully serial.
type Config = core.Config

// Snapshot is the optimizer's observable state after an iteration. Engines
// also offer SnapshotInto (refill a reusable snapshot without allocating)
// and Probe (just the convergence scalars) for per-iteration polling.
type Snapshot = core.Snapshot

// Workload is a complete problem instance: tasks, resources and utility
// curves.
type Workload = workload.Workload

// NewEngine compiles a workload into the synchronous LLA optimizer. Its Step
// fans the per-task controller work across Config.Workers shards with a
// bitwise-deterministic reduction, so any worker count produces identical
// trajectories; the steady-state iteration is allocation-free. Call Close to
// release the shard workers when discarding an engine early.
func NewEngine(w *Workload, cfg Config) (*core.Engine, error) {
	return core.NewEngine(w, cfg)
}

// Paper evaluation workloads.
var (
	// BaseWorkload returns the three-task simulation workload of Section 5
	// (Table 1 / Figure 4).
	BaseWorkload = workload.Base
	// PrototypeWorkload returns the four-task prototype workload of
	// Section 6.
	PrototypeWorkload = workload.Prototype
	// Replicate scales a workload by task replication.
	Replicate = workload.Replicate
	// RandomWorkload generates a seeded random workload.
	RandomWorkload = workload.Random
	// DefaultRandomConfig returns a schedulable medium-sized configuration
	// for RandomWorkload.
	DefaultRandomConfig = workload.DefaultRandomConfig
)

// SimConfig configures the simulator.
type SimConfig = sim.Config

// Scheduler kinds for the simulator.
const (
	// SchedGPS is the idealized fluid proportional-share scheduler.
	SchedGPS = sim.GPS
	// SchedQuantum is the quantum-based scheduler with realistic lag.
	SchedQuantum = sim.Quantum
)

// NewSimulator builds the discrete-event proportional-share world for a
// workload, for enacting and measuring assignments.
func NewSimulator(w *Workload, cfg SimConfig) (*sim.Sim, error) {
	return sim.New(w, cfg)
}

// ClosedLoopConfig parametrizes NewClosedLoop.
type ClosedLoopConfig = closedloop.Config

// ClosedLoopEpoch is one loop iteration's observation.
type ClosedLoopEpoch = closedloop.Epoch

// NewClosedLoop packages the paper's deployed system shape (Section 6) over
// a workload: the optimizer runs continuously against a (simulated)
// proportional-share system, enacting allocations only on significant
// change (Section 4.4) and improving the share model online from measured
// latencies.
func NewClosedLoop(w *Workload, engineCfg Config, simCfg SimConfig, cfg ClosedLoopConfig) (*closedloop.Loop, error) {
	return closedloop.New(w, engineCfg, simCfg, cfg)
}

// NewCorrector builds the online additive model-error corrector (Section
// 6.3).
var NewCorrector = errcorr.New

// NewDistributed assembles a distributed deployment on the given network:
// LLA as message-passing resource and controller nodes, round-synchronized
// (Run, RunUntilKKT, RunWithFailover) or, with RunAsync, without round
// synchronization — nodes compute on whatever prices/latencies have arrived
// and publish immediately (prefer fixed moderate steps under long message
// delays).
func NewDistributed(w *Workload, cfg Config, net transport.Network) (*dist.Runtime, error) {
	return dist.New(w, cfg, net)
}

// NewInprocNetwork returns an in-process network. It delivers immediately
// and loses nothing.
func NewInprocNetwork(cfg InprocConfig) transport.Network {
	return transport.NewInproc(cfg)
}

// InprocConfig tunes the in-process network.
type InprocConfig = transport.InprocConfig

// NewTCPNetwork returns a TCP network with a logical-name registry. It
// speaks the binary wire protocol (PROTOCOL.md).
func NewTCPNetwork(registry map[string]string) *transport.TCP {
	return transport.NewTCP(registry)
}

// Admission control and price-guided placement (see DESIGN.md "Admission &
// placement"). An AdmissionController sits above a live engine and screens
// arriving tasks through three gates — static necessary conditions, a price
// screen against the live dual variables, and a bounded warm-started trial
// optimization on a scratch engine — then enacts admitted tasks via
// warm-started workload replacement. A placer (NewPlacer) binds candidate
// subtasks to the cheapest feasible resources at the live prices and can
// re-place resident tasks under sustained price skew.
type (
	// AdmissionController screens and enacts arriving/departing tasks over
	// a live engine.
	AdmissionController = admit.Controller
	// AdmissionConfig sets the trial budget and the admit-everything
	// baseline; the gates' bounds and the quarantine backoff are constants.
	AdmissionConfig = admit.Config
	// AdmissionDecision is one entry of the controller's decision log.
	AdmissionDecision = admit.Decision
	// PlacedCandidate is a task offered for placed admission: advisory
	// bindings plus per-subtask candidate resource sets.
	PlacedCandidate = admit.Candidate
)

// NewAdmissionController builds an admission controller over a running
// engine (converge the engine first: the price screen reads live prices).
func NewAdmissionController(e *core.Engine, cfg AdmissionConfig) *AdmissionController {
	return admit.New(e, cfg)
}

// NewPlacer builds a price-guided placer; attach it with
// AdmissionController.UsePlacer.
var NewPlacer = admit.NewPlacer

// ChurnTemplate is a replicable chain-pipeline task shape for admission
// studies (the lla-sim "churn" experiment replays seeded traces of them).
type ChurnTemplate = workload.ChurnTemplate

// Baselines (offline deadline-slicing heuristics and the centralized
// reference solver) for comparison against LLA.
type (
	// BaselineAssignment is a per-task latency assignment produced by a
	// baseline algorithm.
	BaselineAssignment = baseline.Assignment
	// CentralConfig parametrizes the centralized reference solver.
	CentralConfig = baseline.CentralConfig
)

var (
	// EvenSlice distributes each critical time evenly along paths.
	EvenSlice = baseline.EvenSlice
	// ProportionalSlice distributes critical times proportionally to WCET.
	ProportionalSlice = baseline.ProportionalSlice
	// EvaluateAssignment scores an assignment against a workload.
	EvaluateAssignment = baseline.Evaluate
	// CentralSolve runs the centralized augmented-Lagrangian reference
	// solver.
	CentralSolve = baseline.Central
)

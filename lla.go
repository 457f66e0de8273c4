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
// The facade re-exports the library's layers:
//
//   - Task modeling: Task, Subtask, NewTask (builder), Periodic/Poisson/
//     Bursty triggers.
//   - Utility curves: Linear, NegLatency, Quadratic, ExpPenalty,
//     NewPiecewiseLinear.
//   - Workloads: Workload, plus the paper's evaluation workloads
//     (BaseWorkload, PrototypeWorkload), replication scaling and a random
//     generator.
//   - The optimizer: Engine (synchronous) and the distributed runtime
//     (NewDistributed) over in-process or TCP transports.
//   - The simulator: Simulator, a discrete-event proportional-share world
//     for enacting and measuring assignments.
//   - Online model error correction: Corrector.
//   - Observability: Observer (per-iteration telemetry via RingRecorder/
//     JSONLWriter, a Prometheus-text MetricsRegistry, trace events) and
//     ServeDebug for the /metrics + pprof endpoint; see OBSERVABILITY.md.
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
	"lla/internal/gateway"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/sim"
	"lla/internal/task"
	"lla/internal/transport"
	"lla/internal/utility"
	"lla/internal/wire"
	"lla/internal/workload"
)

// Task modeling.
type (
	// Task is an end-to-end task: subtasks, a precedence DAG, a trigger and
	// a critical time.
	Task = task.Task
	// Subtask is one stage of a task, consuming exactly one resource.
	Subtask = task.Subtask
	// TaskBuilder constructs tasks fluently; see NewTask.
	TaskBuilder = task.Builder
	// Trigger describes a task's triggering-event arrival pattern.
	Trigger = task.Trigger
	// WeightMode selects the utility variant (sum vs path-weighted).
	WeightMode = task.WeightMode
)

// NewTask starts building a task with the given name and critical time
// (milliseconds).
func NewTask(name string, criticalMs float64) *TaskBuilder {
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

// Weight modes (Section 3.2 of the paper).
const (
	// WeightSum weights every subtask equally.
	WeightSum = task.WeightSum
	// WeightPathNormalized weights subtasks by the fraction of paths
	// through them (the paper's path-weighted variant; default).
	WeightPathNormalized = task.WeightPathNormalized
	// WeightPathRaw uses unnormalized path counts (ablation).
	WeightPathRaw = task.WeightPathRaw
)

// Utility curves.
type (
	// Curve maps aggregate latency to benefit; implementations must be
	// concave and non-increasing.
	Curve = utility.Curve
	// Linear is f(x) = K*C - x.
	Linear = utility.Linear
	// NegLatency is f(x) = -x.
	NegLatency = utility.NegLatency
	// Quadratic is f(x) = A - B*x².
	Quadratic = utility.Quadratic
	// ExpPenalty is f(x) = A - B*(e^(x/Tau) - 1), a concave approximation
	// of an inelastic (hard-deadline) task.
	ExpPenalty = utility.ExpPenalty
)

// NewPiecewiseLinear builds a concave piecewise-linear curve.
var NewPiecewiseLinear = utility.NewPiecewiseLinear

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

// Engine is the synchronous LLA optimizer. Step fans the per-task
// controller work across Config.Workers shards with a bitwise-deterministic
// reduction, so any worker count produces identical trajectories; the
// steady-state iteration is allocation-free. Call Close to release the
// shard workers when discarding an engine early.
type Engine = core.Engine

// Config configures the optimizer (weight mode, step policy, parallelism,
// ...). Config.Workers selects the iteration's shard count: 0 = GOMAXPROCS,
// 1 = fully serial.
type Config = core.Config

// StepPolicy configures price step sizes; Adaptive enables the paper's
// congestion-doubling heuristic.
type StepPolicy = core.StepPolicy

// SparseStats aggregates the iteration's skip counters, as
// Engine.SparseStats returns: Step skips controllers whose observed prices
// are unchanged and resources whose contributing shares are unchanged, which
// changes no bit of the trajectory.
type SparseStats = core.SparseStats

// PriceSolver selects the resource-price dynamics for Config.PriceSolver
// (DESIGN.md §12): diagonal Newton (the default), the paper's gradient
// projection, or another accelerated solver; all reach the same fixed point.
// Every solver keeps the engine ≡ distributed-runtime bitwise equivalence
// and the zero-allocation steady-state step.
type PriceSolver = price.Solver

// Price solvers for Config.PriceSolver.
const (
	// SolverGradient is the paper's gradient projection with the Section
	// 5.2 congestion-doubling heuristic — the reference dynamics.
	SolverGradient = price.SolverGradient
	// SolverNewton is diagonal Newton in log-price coordinates, scaled by
	// the closed-form demand-response curvature (~10x fewer rounds): the
	// default.
	SolverNewton = price.SolverNewton
	// SolverAnderson is safeguarded coordinate-wise Anderson acceleration
	// over the reference gradient map.
	SolverAnderson = price.SolverAnderson
	// SolverPriceDiscovery is the multiplicative tatonnement update of
	// Agrawal & Boyd's price-discovery method.
	SolverPriceDiscovery = price.SolverPriceDiscovery
)

// ParsePriceSolver resolves a flag or config string to a PriceSolver ("" is
// the unset solver, which Config resolves to Newton), rejecting unknown
// names.
var ParsePriceSolver = price.ParseSolver

// PriceSolvers lists every implemented solver, reference first.
var PriceSolvers = price.Solvers

// Snapshot is the optimizer's observable state after an iteration. Engines
// also offer SnapshotInto (refill a reusable snapshot without allocating)
// and Probe (just the convergence scalars) for per-iteration polling.
type Snapshot = core.Snapshot

// Probe is the allocation-free convergence view of an iteration: aggregate
// utility and the maximum constraint violations, as Engine.Probe returns.
type Probe = core.Probe

// Workload is a complete problem instance: tasks, resources and utility
// curves.
type Workload = workload.Workload

// NewEngine compiles a workload into a synchronous optimizer.
func NewEngine(w *Workload, cfg Config) (*Engine, error) {
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
)

// SchedulabilityReport is the result of the static necessary-condition
// analysis; the sufficient schedulability test is running LLA itself
// (Section 5.4 of the paper).
type SchedulabilityReport = workload.SchedulabilityReport

// AnalyzeWorkload runs the static necessary conditions for schedulability
// (path and resource floors).
var AnalyzeWorkload = workload.Analyze

// RandomConfig parametrizes RandomWorkload.
type RandomConfig = workload.RandomConfig

// DefaultRandomConfig returns a schedulable medium-sized configuration.
var DefaultRandomConfig = workload.DefaultRandomConfig

// Simulator is the discrete-event proportional-share world.
type Simulator = sim.Sim

// SimConfig configures the simulator.
type SimConfig = sim.Config

// Scheduler kinds for the simulator.
const (
	// SchedGPS is the idealized fluid proportional-share scheduler.
	SchedGPS = sim.GPS
	// SchedQuantum is the quantum-based scheduler with realistic lag.
	SchedQuantum = sim.Quantum
	// SchedSFQ is the start-time fair queuing scheduler.
	SchedSFQ = sim.SFQ
)

// NewSimulator builds a simulator for a workload.
func NewSimulator(w *Workload, cfg SimConfig) (*Simulator, error) {
	return sim.New(w, cfg)
}

// Enactor implements the paper's enactment policy (Section 4.4): the
// optimizer runs continuously but allocations are pushed to the schedulers
// only on significant change.
type Enactor = core.Enactor

// NewEnactor returns an enactor with the paper's thresholds.
var NewEnactor = core.NewEnactor

// ClosedLoop packages the paper's deployed system shape (Section 6): the
// optimizer runs continuously against a (simulated) proportional-share
// system, enacting allocations through the enactment policy and improving
// the share model online from measured latencies.
type ClosedLoop = closedloop.Loop

// ClosedLoopConfig parametrizes a ClosedLoop.
type ClosedLoopConfig = closedloop.Config

// ClosedLoopEpoch is one loop iteration's observation.
type ClosedLoopEpoch = closedloop.Epoch

// NewClosedLoop builds a closed loop over a workload.
func NewClosedLoop(w *Workload, engineCfg Config, simCfg SimConfig, cfg ClosedLoopConfig) (*ClosedLoop, error) {
	return closedloop.New(w, engineCfg, simCfg, cfg)
}

// Corrector is the online additive model-error corrector (Section 6.3).
type Corrector = errcorr.Corrector

// CorrectorConfig parametrizes a Corrector.
type CorrectorConfig = errcorr.Config

// NewCorrector builds a corrector.
var NewCorrector = errcorr.New

// Distributed runtime.
type (
	// Distributed drives LLA as message-passing resource and controller
	// nodes over a transport: round-synchronized (Run, RunUntilConverged,
	// RunWithFailover) or, with RunAsync, without round synchronization —
	// nodes compute on whatever prices/latencies have arrived and publish
	// immediately (prefer fixed moderate steps under long message delays).
	Distributed = dist.Runtime
	// DistResult summarizes a distributed run.
	DistResult = dist.Result
	// Network is a messaging substrate (in-process or TCP).
	Network = transport.Network
)

// NewDistributed assembles a distributed deployment on the given network.
func NewDistributed(w *Workload, cfg Config, net Network) (*Distributed, error) {
	return dist.New(w, cfg, net)
}

// Observability (see OBSERVABILITY.md). An Observer bundles the three
// channels — per-iteration Recorder, metrics Registry, trace Sink — and
// attaches to an Engine (Engine.Observe) or a Distributed runtime
// (Distributed.Observe); attaching costs nothing on the unobserved hot path.
type (
	// Observer bundles the observability channels; any field may be nil.
	Observer = obs.Observer
	// IterationSample is one iteration's full telemetry: utility, KKT
	// residuals, constraint violations, prices, demands, step sizes.
	IterationSample = obs.IterationSample
	// Recorder receives IterationSamples (see Ring and JSONL).
	Recorder = obs.Recorder
	// MetricsRegistry holds named counters/gauges/histograms and renders
	// them in Prometheus text format.
	MetricsRegistry = obs.Registry
	// TraceEvent is a structured runtime event (convergence, workload
	// change, lease expiry, degradation transitions).
	TraceEvent = obs.Event
	// TraceSink receives TraceEvents (see MemorySink and JSONL).
	TraceSink = obs.Sink
	// RingRecorder keeps the last N samples in memory.
	RingRecorder = obs.Ring
	// MemorySink accumulates trace events in memory.
	MemorySink = obs.Memory
	// JSONLWriter streams samples and events as JSON lines; it is both a
	// Recorder and a TraceSink.
	JSONLWriter = obs.JSONL
)

var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewRingRecorder returns a recorder keeping the last n samples.
	NewRingRecorder = obs.NewRing
	// NewJSONLWriter returns a JSONL telemetry writer over w.
	NewJSONLWriter = obs.NewJSONL
	// ServeDebug starts an HTTP server exposing /metrics, /debug/vars and
	// /debug/pprof for a registry.
	ServeDebug = obs.Serve
	// DebugHandler returns the same endpoints as an http.Handler.
	DebugHandler = obs.DebugHandler
)

// FaultPolicy tunes the distributed fault-tolerance machinery
// (retransmission backoff and failure-detection leases).
type FaultPolicy = dist.FaultPolicy

// DefaultFaultPolicy returns the retransmission/lease defaults.
var DefaultFaultPolicy = dist.DefaultFaultPolicy

// NewInprocNetwork returns an in-process network. It delivers immediately
// and loses nothing; to inject faults (loss, delay, jitter, duplication,
// reordering, partitions, crash/restart) wrap it in NewChaosNetwork.
func NewInprocNetwork(cfg InprocConfig) Network {
	return transport.NewInproc(cfg)
}

// InprocConfig tunes the in-process network.
type InprocConfig = transport.InprocConfig

// NewTCPNetwork returns a TCP network with a logical-name registry. It
// speaks the binary wire protocol with ids inline; SetCodec a
// NewWorkloadWireCodec on every node to send dictionary indexes instead.
func NewTCPNetwork(registry map[string]string) *transport.TCP {
	return transport.NewTCP(registry)
}

// Binary wire protocol (PROTOCOL.md). A WireCodec frames messages in the
// versioned binary format, the only one a TCP network carries: each
// connection opens with a handshake that refuses a peer on version skew or
// a dictionary mismatch. In-process networks given one round-trip every
// delivery through it.
type (
	// WireCodec is the binary frame codec; it satisfies the transport
	// Codec interface accepted by TCP/Inproc SetCodec.
	WireCodec = wire.Codec
	// WireDict is the shared id dictionary that compresses resource/task
	// names to varint indexes; peers must agree on it (the handshake
	// carries its hash).
	WireDict = wire.Dict
)

var (
	// NewWireCodec returns a binary codec; dict may be nil for
	// string-mode frames.
	NewWireCodec = wire.NewCodec
	// NewWireDict builds an id dictionary from resource/task/subtask
	// names.
	NewWireDict = wire.NewDict
	// NewWorkloadWireCodec builds the codec for a workload's id space,
	// publishing lla_wire_* metrics when reg is non-nil.
	NewWorkloadWireCodec = dist.WireCodec
)

// Streaming control-plane gateway (PROTOCOL.md §6, OBSERVABILITY.md): an
// HTTP/SSE endpoint publishing delta-encoded live optimizer state. A
// Gateway is both a Recorder and a TraceSink; compose it with other
// channels via MultiRecorder/MultiSink.
type (
	// Gateway streams keyframe/delta/trace SSE events at /stream and the
	// current state snapshot at /state.
	Gateway = gateway.Gateway
	// GatewayConfig tunes keyframe cadence and per-connection queues.
	GatewayConfig = gateway.Config
	// GatewayKeyframe is the full streamed state.
	GatewayKeyframe = gateway.Keyframe
	// GatewayDelta is one iteration's changes against the previous event.
	GatewayDelta = gateway.Delta
)

var (
	// NewGateway returns a gateway publishing lla_gateway_* metrics on reg
	// (which may be nil).
	NewGateway = gateway.New
	// ServeGateway starts the gateway's HTTP server on addr.
	ServeGateway = gateway.Serve
	// MultiRecorder fans Begin/Commit out to several recorders.
	MultiRecorder = obs.MultiRecorder
	// MultiSink fans trace events out to several sinks.
	MultiSink = obs.MultiSink
)

// ChaosConfig tunes deterministic, seeded fault injection.
type ChaosConfig = transport.ChaosConfig

// NewChaosNetwork wraps any Network with deterministic fault injection —
// loss, delay/jitter, duplication, reordering, partitions and node
// crash/restart — for robustness testing (see README "Chaos testing").
func NewChaosNetwork(inner Network, cfg ChaosConfig) *transport.Chaos {
	return transport.NewChaos(inner, cfg)
}

// Admission control and price-guided placement (see DESIGN.md "Admission &
// placement"). An AdmissionController sits above a live Engine and screens
// arriving tasks through three gates — static necessary conditions, a price
// screen against the live dual variables, and a bounded warm-started trial
// optimization on a forked scratch engine — then enacts admitted tasks via
// warm-started workload replacement. A Placer binds candidate subtasks to
// the cheapest feasible resources at the live prices and can re-place
// resident tasks under sustained price skew.
type (
	// AdmissionController screens and enacts arriving/departing tasks over
	// a live engine.
	AdmissionController = admit.Controller
	// AdmissionConfig tunes the admission gates (headroom, overcommit,
	// cost-benefit bound, trial budgets, quarantine backoff).
	AdmissionConfig = admit.Config
	// AdmissionDecision is one entry of the controller's decision log.
	AdmissionDecision = admit.Decision
	// AdmissionEstimate is the price screen's demand prediction.
	AdmissionEstimate = admit.Estimate
	// Placer binds subtasks to the cheapest feasible resources at the live
	// prices.
	Placer = admit.Placer
	// PlacerConfig tunes placement and rebalance triggers.
	PlacerConfig = admit.PlacerConfig
	// PlacedCandidate is a task offered for placed admission: advisory
	// bindings plus per-subtask candidate resource sets.
	PlacedCandidate = admit.Candidate
)

// NewAdmissionController builds an admission controller over a running
// engine (converge the engine first: the price screen reads live prices).
func NewAdmissionController(e *Engine, cfg AdmissionConfig) *AdmissionController {
	return admit.New(e, cfg)
}

// NewPlacer builds a price-guided placer; attach it with
// AdmissionController.UsePlacer.
var NewPlacer = admit.NewPlacer

// Churn traces: seeded arrival/departure workloads for admission studies
// (the lla-sim "churn" experiment replays one against the controller).
type (
	// ChurnTemplate is a replicable chain-pipeline task shape.
	ChurnTemplate = workload.ChurnTemplate
	// ChurnConfig parametrizes GenerateChurn.
	ChurnConfig = workload.ChurnConfig
	// ChurnEvent is one arrival or departure in a trace.
	ChurnEvent = workload.ChurnEvent
)

// GenerateChurn produces a seeded Poisson arrival/departure trace.
var GenerateChurn = workload.GenerateChurn

// Distributed-deployment admission: a running Distributed runtime's
// coordinator answers admission queries against its live price mirrors
// (static + price gates only; the trial gate needs an engine).
type (
	// DistAdmissionQuery describes a chain-pipeline candidate.
	DistAdmissionQuery = dist.AdmissionQuery
	// DistAdmissionDecision is the coordinator's verdict.
	DistAdmissionDecision = dist.AdmissionDecision
)

// QueryAdmission asks a running deployment's coordinator whether a
// candidate could join, blocking up to the timeout for the decision.
var QueryAdmission = dist.QueryAdmission

// Baselines (offline deadline-slicing heuristics and the centralized
// reference solver) for comparison against LLA.
type (
	// BaselineAssignment is a per-task latency assignment produced by a
	// baseline algorithm.
	BaselineAssignment = baseline.Assignment
	// BaselineEvaluation summarizes an assignment's utility and constraint
	// violations.
	BaselineEvaluation = baseline.Evaluation
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

package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the engine and the distributed runtimes.
const (
	// EventConverged fires when the KKT certificate has held for its
	// window (engine RunUntilKKT, dist coordinator).
	EventConverged = "converged"
	// EventWorkloadChange fires on a runtime variation: availability,
	// minimum share, or model-error change (Detail says which).
	EventWorkloadChange = "workload_change"
	// EventLeaseExpiry fires when the coordinator's per-task report lease
	// expires: the task's controller stayed silent past
	// FaultPolicy.LeaseAfter.
	EventLeaseExpiry = "lease_expiry"
	// EventDegradedEnter fires when an async controller marks a used
	// resource's price lease expired and starts clamping allocations
	// deadline-safe on its frozen price.
	EventDegradedEnter = "degraded_enter"
	// EventDegradedExit fires when a fresh price ends a resource's
	// degradation.
	EventDegradedExit = "degraded_exit"
	// EventAdmission fires per admission decision: Task names the candidate,
	// Detail names the deciding gate, Value is 1 (admitted) or 0 (rejected).
	EventAdmission = "admission"
	// EventRebalance fires when the placer's skew-triggered rebalance moves
	// a resident task; Task names it and Detail the new binding.
	EventRebalance = "rebalance"
	// EventCheckpoint fires when a checkpoint is durably written; Iteration
	// is the engine iteration it captured, Value its encoded size in bytes.
	EventCheckpoint = "checkpoint"
	// EventRestore fires when an engine is rebuilt from a checkpoint;
	// Iteration is the restored iteration, Detail the checkpoint path.
	EventRestore = "restore"
	// EventEpochBump fires when a restarted coordinator adopts a new
	// generation; Value is the new epoch, Round the emission cursor at
	// restart.
	EventEpochBump = "epoch_bump"
	// EventFleetRound fires per completed aggregator round of the sharded
	// fleet; Round is the aggregator round, Iteration the shard iterations
	// it consumed, Value the worst boundary residual after the round, and
	// Swept/Skipped/Workers describe the round's shard-level active set and
	// sweep concurrency.
	EventFleetRound = "fleet_round"
	// EventFleetRebuild fires when Fleet.ReplaceWorkload applies a churn
	// delta; Iteration is the number of shards rebuilt, Value the number
	// reused untouched, and Detail "full" when the delta forced a full
	// repartition (else "incremental").
	EventFleetRebuild = "fleet_rebuild"
	// EventFleetConverged fires when the fleet aggregator certifies the
	// global fixed point; Round is the certifying round, Value the worst
	// shard-local KKT residual.
	EventFleetConverged = "fleet_converged"
)

// Event is one structured trace event. Unused fields are omitted from the
// JSON encoding; OBSERVABILITY.md documents the fields each kind carries.
type Event struct {
	// Record discriminates JSONL lines ("event"); set by the sink.
	Record string `json:"record,omitempty"`
	// Kind is one of the Event* constants.
	Kind string `json:"event"`
	// TimeUnixNano is the wall-clock emission time (stamped by
	// Observer.Emit when the emitter left it zero).
	TimeUnixNano int64 `json:"t_unix_ns"`
	// Iteration/Round locate the event in optimization time where known.
	Iteration int `json:"iter,omitempty"`
	Round     int `json:"round,omitempty"`
	// Epoch and Node are the coordinator generation and the address of the
	// emitting node; with Round, the distributed runtime's drivers stamp all
	// three on every event a node emits.
	Epoch uint64 `json:"epoch,omitempty"`
	Node  string `json:"node,omitempty"`
	// Task, Subtask and Resource name the entities involved.
	Task     string `json:"task,omitempty"`
	Subtask  string `json:"subtask,omitempty"`
	Resource string `json:"resource,omitempty"`
	// Detail qualifies the kind (e.g. which knob a workload_change moved).
	Detail string `json:"detail,omitempty"`
	// Value carries the kind's scalar payload (e.g. the converged utility,
	// or a workload change's new value).
	Value float64 `json:"value,omitempty"`
	// Swept, Skipped and Workers carry fleet_round's shard-level active-set
	// tally: sweeps executed, sweeps skipped at a proven fixed point, and
	// the concurrent sweep worker count (SHARDING.md).
	Swept   int `json:"swept,omitempty"`
	Skipped int `json:"skipped,omitempty"`
	Workers int `json:"workers,omitempty"`
}

// stamp fills the emission time if the emitter did not.
func stamp(ev Event) Event {
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	return ev
}

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls: distributed nodes emit from their own goroutines.
type Sink interface {
	Emit(Event)
}

// Memory is an in-memory Sink for tests and programmatic inspection.
type Memory struct {
	mu     sync.Mutex
	events []Event
}

// NewMemory returns an empty in-memory sink.
func NewMemory() *Memory { return &Memory{} }

// Emit appends the event.
func (m *Memory) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, stamp(ev))
	m.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (m *Memory) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// ByKind returns the emitted events of one kind.
func (m *Memory) ByKind(kind string) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, ev := range m.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// multiSink fans Emit out to several sinks.
type multiSink struct{ sinks []Sink }

// MultiSink composes sinks into one. Nil entries are dropped; the result
// is nil for an empty set and the sink itself for a single one.
func MultiSink(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multiSink{sinks: kept}
}

// Emit implements Sink.
func (m *multiSink) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// JSONL writes telemetry — iteration samples and trace events — as one JSON
// object per line to an io.Writer. Every line carries a "record" field
// ("sample" or "event") so a stream mixing both remains machine-parseable;
// EXPERIMENTS.md's runbook and OBSERVABILITY.md's walkthrough build the
// paper's convergence plots from these streams.
//
// JSONL is both a Recorder and a Sink: attach one instance as both fields
// of an Observer to interleave samples and events in a single file. Emit is
// safe for concurrent use; as a Recorder it must be attached to at most one
// engine (the Recorder contract).
type JSONL struct {
	// Every downsamples recording: only iterations divisible by Every are
	// written (0 or 1 writes everything). Set before attaching.
	Every int

	scratch IterationSample

	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink/recorder writing one JSON object per line to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Begin returns the scratch sample, or nil on downsampled iterations.
func (j *JSONL) Begin(iteration int) *IterationSample {
	if j.Every > 1 && iteration%j.Every != 0 {
		return nil
	}
	return &j.scratch
}

// sampleLine wraps a sample with the line discriminator.
type sampleLine struct {
	Record string `json:"record"`
	*IterationSample
}

// Commit writes the filled sample as a "sample" line.
func (j *JSONL) Commit(s *IterationSample) {
	j.mu.Lock()
	if err := j.enc.Encode(sampleLine{Record: "sample", IterationSample: s}); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// Emit writes the event as an "event" line.
func (j *JSONL) Emit(ev Event) {
	ev = stamp(ev)
	ev.Record = "event"
	j.mu.Lock()
	if err := j.enc.Encode(ev); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// Err returns the first write error encountered, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

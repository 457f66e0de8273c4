// Package obs is the observability layer of the LLA reproduction: it makes
// the *online* behavior the paper is judged on — how fast prices mu_r
// (Equation 8), path prices lambda_p (Equation 9) and latency assignments
// re-converge after workload and resource variations (Sections 5 and 6) —
// visible while the system runs, instead of only through a final result.
//
// Three channels, bundled by Observer and all optional:
//
//   - Recorder: per-iteration telemetry (price vectors, KKT stationarity
//     residuals of Equation 7, aggregate utility, per-resource demand vs.
//     availability B_r, step-size controller state). Ring keeps the last N
//     samples in memory with no steady-state allocation; JSONL streams every
//     sample as one JSON object per line.
//   - Registry: counters, gauges and histograms exported in Prometheus text
//     format (and via expvar on the debug server). NewEngineMetrics and
//     NewDistMetrics register the standard LLA metric sets.
//   - Sink: structured trace events (certified convergence, workload change,
//     lease expiry, degradation enter/exit) with JSONL and in-memory
//     implementations.
//
// The package deliberately depends only on the standard library so every
// layer (internal/core, internal/dist, internal/eval, the CLIs) can attach
// to it without import cycles. Attaching costs: a component with a nil
// Observer pays a single nil-check per iteration — internal/core's engine
// hot path stays allocation-free (see the alloc regression tests).
// OBSERVABILITY.md documents every exported field and metric.
package obs

// Observer bundles the three observability channels. A nil *Observer — or
// any nil field — disables that channel; components check once per
// iteration and skip all telemetry work when nothing is attached.
type Observer struct {
	// Recorder receives per-iteration telemetry samples.
	Recorder Recorder
	// Metrics is the counter/gauge/histogram registry components register
	// their standard metric sets on.
	Metrics *Registry
	// Trace receives structured trace events.
	Trace Sink
}

// Emit forwards an event to the trace sink, stamping the wall-clock time.
// Safe on a nil Observer or nil Trace; safe for concurrent use when the
// underlying sink is (both provided sinks are).
func (o *Observer) Emit(ev Event) {
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace.Emit(stamp(ev))
}

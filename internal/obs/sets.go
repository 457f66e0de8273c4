package obs

// Standard metric sets. Components resolve their handles once at attach
// time (registration locks the registry) and afterwards update them with
// atomic operations only. OBSERVABILITY.md documents every name.

// EngineMetrics is the synchronous optimizer's standard metric set.
type EngineMetrics struct {
	// Iterations counts completed engine iterations.
	Iterations *Counter
	// Utility is the aggregate utility Σ_i U_i after the last iteration.
	Utility *Gauge
	// KKTMax is the worst normalized Equation 7 stationarity residual.
	KKTMax *Gauge
	// MaxResourceViolation and MaxPathViolation mirror the Snapshot
	// diagnostics of the same names.
	MaxResourceViolation *Gauge
	MaxPathViolation     *Gauge
}

// NewEngineMetrics registers (or re-resolves) the engine metric set on r.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Iterations:           r.Counter("lla_engine_iterations_total", "Completed optimizer iterations."),
		Utility:              r.Gauge("lla_engine_utility", "Aggregate utility after the last iteration."),
		KKTMax:               r.Gauge("lla_engine_kkt_residual_max", "Worst normalized KKT stationarity residual (Eq 7)."),
		MaxResourceViolation: r.Gauge("lla_engine_max_resource_violation", "Worst resource capacity violation, share units (Eq 3)."),
		MaxPathViolation:     r.Gauge("lla_engine_max_path_violation", "Worst relative critical-time violation (Eq 4)."),
	}
}

// ResourceMetrics is the per-resource gauge set, shared by the engine and
// the distributed resource nodes (labelled by resource ID).
type ResourceMetrics struct {
	// ShareSum is the total share demanded on the resource (Σ share_r).
	ShareSum *Gauge
	// Availability is the capacity B_r.
	Availability *Gauge
	// Utilization is ShareSum / Availability (1.0 = saturated; LLA's
	// optimum saturates congested resources exactly).
	Utilization *Gauge
	// Price is the resource price mu_r (Eq 8).
	Price *Gauge
}

// NewResourceMetrics registers the per-resource gauges for resource id.
func NewResourceMetrics(r *Registry, id string) *ResourceMetrics {
	return &ResourceMetrics{
		ShareSum:     r.Gauge("lla_resource_share_sum", "Total share demanded on the resource.", "resource", id),
		Availability: r.Gauge("lla_resource_availability", "Resource availability B_r.", "resource", id),
		Utilization:  r.Gauge("lla_resource_utilization", "Demand over availability (1.0 = saturated).", "resource", id),
		Price:        r.Gauge("lla_resource_price", "Resource price mu_r (Eq 8).", "resource", id),
	}
}

// SparseMetrics is the incremental-iteration metric set: how much work the
// active-set engine path skipped (bitwise fixed-point controllers and clean
// resources) and how much wire traffic the distributed delta codec saved.
// The engine publishes the first four; the distributed runtime the last two.
type SparseMetrics struct {
	// SkippedSolves counts controller solves skipped because no observed
	// price moved since the previous solve, which was at a fixed point.
	SkippedSolves *Counter
	// ExecutedSolves counts controller solves actually performed.
	ExecutedSolves *Counter
	// CleanResources counts resource price updates skipped as clean.
	CleanResources *Counter
	// RepricedResources counts resource price updates actually performed.
	RepricedResources *Counter
	// DeltaBroadcasts counts price broadcasts suppressed by the delta
	// codec (mu unchanged since the receiver's acknowledged round).
	DeltaBroadcasts *Counter
	// DeltaBytesSaved counts payload bytes the suppressed broadcasts and
	// coalesced reports would have put on the wire.
	DeltaBytesSaved *Counter
}

// NewSparseMetrics registers the incremental-iteration metric set on r.
func NewSparseMetrics(r *Registry) *SparseMetrics {
	return &SparseMetrics{
		SkippedSolves:     r.Counter("lla_sparse_skipped_solves_total", "Controller solves skipped at a bitwise fixed point."),
		ExecutedSolves:    r.Counter("lla_sparse_executed_solves_total", "Controller solves actually performed."),
		CleanResources:    r.Counter("lla_sparse_clean_resources_total", "Resource price updates skipped as clean."),
		RepricedResources: r.Counter("lla_sparse_repriced_resources_total", "Resource price updates actually performed."),
		DeltaBroadcasts:   r.Counter("lla_sparse_delta_broadcasts_total", "Price broadcasts suppressed by the delta codec."),
		DeltaBytesSaved:   r.Counter("lla_sparse_delta_bytes_saved_total", "Payload bytes saved by delta suppression and report coalescing."),
	}
}

// SolverMetrics is the price-dynamics metric set (DESIGN.md §12), labelled
// by solver name (gradient or newton): how many price rounds the configured
// solver has taken, how often Newton fell back to the reference gradient
// step, and the residual trajectory (the largest per-round price
// movement), whose decay toward zero is the live convergence signal.
type SolverMetrics struct {
	// Rounds counts price-update rounds taken by the solver.
	Rounds *Counter
	// Fallbacks counts Newton steps that fell back to the reference gradient
	// step (degenerate-curvature coordinates); always zero for the gradient.
	Fallbacks *Counter
	// Residual is the largest |Δμ| any resource moved in the last round.
	Residual *Gauge
}

// NewSolverMetrics registers the price-dynamics metric set for the named
// solver on r.
func NewSolverMetrics(r *Registry, solver string) *SolverMetrics {
	return &SolverMetrics{
		Rounds:    r.Counter("lla_solver_rounds_total", "Price-update rounds taken, by solver.", "solver", solver),
		Fallbacks: r.Counter("lla_solver_fallbacks_total", "Safeguard fallbacks to the reference gradient step.", "solver", solver),
		Residual:  r.Gauge("lla_solver_residual_max", "Largest per-resource price movement |dmu| of the last round.", "solver", solver),
	}
}

// AdmitMetrics is the admission controller's standard metric set — the live
// counterpart of its returned decision log (the internal/admit tests assert
// the two agree exactly).
type AdmitMetrics struct {
	// Considered counts arrival offers presented to the controller.
	Considered *Counter
	// Admitted counts offers that passed every gate and were enacted.
	Admitted *Counter
	// RejectedStatic/Price/Trial/Quarantine count rejections by the gate
	// that fired (stage label on one metric name).
	RejectedStatic     *Counter
	RejectedPrice      *Counter
	RejectedTrial      *Counter
	RejectedQuarantine *Counter
	// Departures counts resident tasks removed.
	Departures *Counter
	// Resident is the number of tasks currently in the live workload.
	Resident *Gauge
	// ReconvergeIters is the distribution of the iterations each enacted
	// change's successor engine ran before it became the live one (for a
	// gated admit, the trial's).
	ReconvergeIters *Histogram
}

// NewAdmitMetrics registers the admission metric set on r.
func NewAdmitMetrics(r *Registry) *AdmitMetrics {
	return &AdmitMetrics{
		Considered:         r.Counter("lla_admit_considered_total", "Arrival offers presented to the admission controller."),
		Admitted:           r.Counter("lla_admit_admitted_total", "Offers admitted and enacted."),
		RejectedStatic:     r.Counter("lla_admit_rejected_total", "Offers rejected, by gate.", "stage", "static"),
		RejectedPrice:      r.Counter("lla_admit_rejected_total", "Offers rejected, by gate.", "stage", "price"),
		RejectedTrial:      r.Counter("lla_admit_rejected_total", "Offers rejected, by gate.", "stage", "trial"),
		RejectedQuarantine: r.Counter("lla_admit_rejected_total", "Offers rejected, by gate.", "stage", "quarantine"),
		Departures:         r.Counter("lla_admit_departures_total", "Resident tasks removed."),
		Resident:           r.Gauge("lla_admit_resident_tasks", "Tasks currently resident in the live workload."),
		ReconvergeIters: r.Histogram("lla_admit_reconverge_iterations", "Iterations of the successor engine an enacted change adopted.",
			[]float64{10, 25, 50, 100, 250, 500, 1000, 2500}),
	}
}

// PlaceMetrics is the price-guided placer's metric set.
type PlaceMetrics struct {
	// Bindings counts subtask-to-resource bindings chosen by Bind.
	Bindings *Counter
	// Rebalances counts resident tasks moved by the skew-triggered
	// rebalance pass.
	Rebalances *Counter
}

// NewPlaceMetrics registers the placement metric set on r.
func NewPlaceMetrics(r *Registry) *PlaceMetrics {
	return &PlaceMetrics{
		Bindings:   r.Counter("lla_place_bindings_total", "Subtask-to-resource bindings chosen by the placer."),
		Rebalances: r.Counter("lla_place_rebalances_total", "Resident tasks moved by the rebalance pass."),
	}
}

// DistMetrics is the distributed runtime's standard metric set — the live
// counterpart of the dist Result counters.
type DistMetrics struct {
	// Rounds counts fully reported synchronous rounds (coordinator view).
	Rounds *Counter
	// Retransmits counts reliability-layer re-sends (sender timeouts and
	// receiver-side stale recovery).
	Retransmits *Counter
	// RejectedStale counts deliveries rejected as duplicates or
	// reordered-stale by round gating.
	RejectedStale *Counter
	// LeaseExpirations counts the coordinator's report leases expiring.
	LeaseExpirations *Counter
	// RoundSeconds is the distribution of coordinator-observed gaps
	// between completed rounds.
	RoundSeconds *Histogram
}

// NewDistMetrics registers the distributed runtime metric set on r.
func NewDistMetrics(r *Registry) *DistMetrics {
	return &DistMetrics{
		Rounds:           r.Counter("lla_dist_rounds_total", "Fully reported synchronous rounds."),
		Retransmits:      r.Counter("lla_dist_retransmits_total", "Messages re-sent by the reliability layer."),
		RejectedStale:    r.Counter("lla_dist_rejected_stale_total", "Deliveries rejected as duplicate or stale."),
		LeaseExpirations: r.Counter("lla_dist_lease_expirations_total", "Report leases that expired."),
		RoundSeconds: r.Histogram("lla_dist_round_seconds", "Gap between completed rounds at the coordinator.",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
	}
}

// WireMetrics is the binary wire codec's metric set (PROTOCOL.md): frame
// and byte volume per direction, RAW escape-hatch frames, decode failures,
// and the outcome of per-connection handshakes.
type WireMetrics struct {
	// FramesEncoded/FramesDecoded count binary frames produced and
	// consumed.
	FramesEncoded *Counter
	FramesDecoded *Counter
	// BytesEncoded/BytesDecoded count whole-frame bytes (header, body and
	// CRC trailer) per direction.
	BytesEncoded *Counter
	BytesDecoded *Counter
	// RawFrames counts messages that rode the RAW escape hatch because
	// their kind or payload shape has no dedicated frame type.
	RawFrames *Counter
	// DecodeErrors counts frames rejected by the defensive decoder (bad
	// magic/version, CRC mismatch, malformed body).
	DecodeErrors *Counter
	// NegotiatedBinary/Refused count connection handshakes by outcome: a
	// refusal is version skew, a dictionary mismatch, or a peer that did not
	// speak the handshake.
	NegotiatedBinary *Counter
	Refused          *Counter
}

// NewWireMetrics registers the wire codec metric set on r.
func NewWireMetrics(r *Registry) *WireMetrics {
	return &WireMetrics{
		FramesEncoded:    r.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "encode"),
		FramesDecoded:    r.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "decode"),
		BytesEncoded:     r.Counter("lla_wire_bytes_total", "Binary frame bytes, by direction.", "dir", "encode"),
		BytesDecoded:     r.Counter("lla_wire_bytes_total", "Binary frame bytes, by direction.", "dir", "decode"),
		RawFrames:        r.Counter("lla_wire_raw_frames_total", "Messages carried by the RAW escape-hatch frame."),
		DecodeErrors:     r.Counter("lla_wire_decode_errors_total", "Frames rejected by the defensive decoder."),
		NegotiatedBinary: r.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", "binary"),
		Refused:          r.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", "refused"),
	}
}

// StreamMetrics is the live trace tail's metric set (Stream, /stream).
type StreamMetrics struct {
	// Connections is the number of live /stream subscribers.
	Connections *Gauge
	// Dropped counts JSONL lines discarded because a subscriber's queue
	// was full.
	Dropped *Counter
}

// NewStreamMetrics registers the stream metric set on r.
func NewStreamMetrics(r *Registry) *StreamMetrics {
	return &StreamMetrics{
		Connections: r.Gauge("lla_stream_connections", "Live /stream subscribers."),
		Dropped:     r.Counter("lla_stream_dropped_lines_total", "JSONL lines discarded on slow /stream subscribers."),
	}
}

// FleetMetrics is the hierarchical sharding metric set (SHARDING.md): the
// top-level aggregator's boundary-price iteration and the partition it runs
// over.
type FleetMetrics struct {
	// Rounds counts completed aggregator rounds (local sweeps + one
	// boundary-price update).
	Rounds *Counter
	// LocalIters counts shard engine iterations summed across shards.
	LocalIters *Counter
	// Broadcasts counts boundary-price pins broadcast to shards.
	Broadcasts *Counter
	// BoundaryResources is the number of cross-shard resources the
	// aggregator iterates on.
	BoundaryResources *Gauge
	// CutCost is the partition cut Σ_r (shards touching r − 1).
	CutCost *Gauge
	// BoundaryResidual is the last round's worst boundary residual: the
	// larger of the relative capacity overload and the relative
	// boundary-price movement.
	BoundaryResidual *Gauge
	// KKTMax is the worst shard-local KKT residual of the last round.
	KKTMax *Gauge
	// Converged is 1 once the KKT stopping rule has certified the global
	// fixed point, else 0.
	Converged *Gauge
	// BoundaryFallbacks counts boundary coordinates that took the gradient
	// safeguard because the aggregator's Newton model was degenerate there.
	BoundaryFallbacks *Counter
	// ShardSweeps and ShardSkips count per-shard sweep decisions: a sweep
	// runs the shard engine's local iteration; a skip reuses the report of a
	// shard at rest — its last sweep ended on its own stopping rule and its
	// pins have not moved since (the shard-level active set).
	ShardSweeps *Counter
	ShardSkips  *Counter
	// ShardWorkers is the resolved sweep concurrency (fleet.Config
	// .ShardWorkers after defaulting).
	ShardWorkers *Gauge
	// ShardRebuilds and ShardReuses count Fleet.ReplaceWorkload decisions:
	// shards rebuilt (warm-started via state carry-over) versus shards whose
	// engines were left untouched by the churn delta.
	ShardRebuilds *Counter
	ShardReuses   *Counter
}

// NewFleetMetrics registers the fleet metric set on r.
func NewFleetMetrics(r *Registry) *FleetMetrics {
	return &FleetMetrics{
		Rounds:            r.Counter("lla_fleet_rounds_total", "Completed aggregator rounds."),
		LocalIters:        r.Counter("lla_fleet_local_iters_total", "Shard engine iterations, summed across shards."),
		Broadcasts:        r.Counter("lla_fleet_broadcasts_total", "Boundary-price pins broadcast to shards."),
		BoundaryResources: r.Gauge("lla_fleet_boundary_resources", "Cross-shard resources the aggregator iterates on."),
		CutCost:           r.Gauge("lla_fleet_cut_cost", "Partition cut: sum over resources of (touching shards - 1)."),
		BoundaryResidual:  r.Gauge("lla_fleet_boundary_residual", "Worst boundary residual of the last round."),
		KKTMax:            r.Gauge("lla_fleet_kkt_residual_max", "Worst shard-local KKT residual of the last round."),
		Converged:         r.Gauge("lla_fleet_converged", "1 once the global fixed point is certified, else 0."),
		BoundaryFallbacks: r.Counter("lla_fleet_boundary_fallbacks_total", "Boundary coordinates that took the gradient safeguard instead of a Newton step."),
		ShardSweeps:       r.Counter("lla_fleet_shard_sweeps_total", "Shard sweeps executed by aggregator rounds."),
		ShardSkips:        r.Counter("lla_fleet_shard_skips_total", "Shard sweeps skipped by the shard-level active set."),
		ShardWorkers:      r.Gauge("lla_fleet_shard_workers", "Resolved concurrent shard-sweep worker count."),
		ShardRebuilds:     r.Counter("lla_fleet_shard_rebuilds_total", "Shards rebuilt (warm) by ReplaceWorkload churn deltas."),
		ShardReuses:       r.Counter("lla_fleet_shard_reuses_total", "Shards left untouched by ReplaceWorkload churn deltas."),
	}
}

// RecoverMetrics is the crash-recovery metric set: checkpoint writes,
// restores, the coordinator generation, and the fencing/rejoin counters that
// prove a dead generation stayed dead.
type RecoverMetrics struct {
	// Checkpoints counts durably written checkpoints.
	Checkpoints *Counter
	// CheckpointBytes is the encoded size of the most recent checkpoint.
	CheckpointBytes *Gauge
	// Restores counts engines rebuilt from a checkpoint.
	Restores *Counter
	// Epoch is the current coordinator generation.
	Epoch *Gauge
	// FencedFrames counts stale-epoch frames discarded by epoch fencing.
	FencedFrames *Counter
	// Rejoins counts completed rejoin handshakes after coordinator restarts.
	Rejoins *Counter
	// RecoveryRounds is the distribution of rounds needed to re-converge
	// after a restore (warm restarts; cold re-convergence sits in the tail).
	RecoveryRounds *Histogram
}

// NewRecoverMetrics registers the crash-recovery metric set on r.
func NewRecoverMetrics(r *Registry) *RecoverMetrics {
	return &RecoverMetrics{
		Checkpoints:     r.Counter("lla_recover_checkpoints_total", "Checkpoints durably written."),
		CheckpointBytes: r.Gauge("lla_recover_checkpoint_bytes", "Encoded size of the most recent checkpoint."),
		Restores:        r.Counter("lla_recover_restores_total", "Engines rebuilt from a checkpoint."),
		Epoch:           r.Gauge("lla_recover_epoch", "Current coordinator generation."),
		FencedFrames:    r.Counter("lla_recover_fenced_frames_total", "Stale-epoch frames discarded by fencing."),
		Rejoins:         r.Counter("lla_recover_rejoins_total", "Completed rejoin handshakes after restarts."),
		RecoveryRounds: r.Histogram("lla_recover_recovery_rounds", "Rounds to re-converge after a restore.",
			[]float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500}),
	}
}

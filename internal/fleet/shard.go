package fleet

import (
	"math"

	"lla/internal/core"
	"lla/internal/wire"
)

// shardRuntime wraps one shard's engine: the sub-workload's tasks with their
// original data, boundary resources pinned to the aggregator's prices.
type shardRuntime struct {
	id  int
	eng *core.Engine

	// localRi[j] is the engine-local resource index of the shard's j-th
	// present boundary resource; slot[j] is its index into the fleet's
	// boundary vectors. Both ascend in boundary order.
	localRi []int
	slot    []int

	// Certification state refreshed by sweep: the engine iterations the last
	// sweep consumed and the complete certificate of the state it left (KKT
	// residual, violation over unpinned resources — the aggregator checks
	// boundary feasibility globally — and path violation fraction).
	iters int
	cert  core.Certificate

	// Shard-level active-set state (SHARDING.md): frozen records that the
	// last sweep exited at a bitwise self-fixed-point (a Step that executed
	// zero solves and repriced zero resources), sweptEpoch the engine's pin
	// epoch when that sweep ended. While both hold — no pinned boundary
	// price has moved since a proven fixed point — re-sweeping would be a
	// bitwise no-op, so the round skips the shard entirely. skip caches the
	// current round's decision.
	frozen     bool
	sweptEpoch uint64
	skip       bool

	// bd and bp are the shard's reusable boundary report/pin buffers
	// (demand+curvature out, price+congestion in). Resource and Shard
	// fields are fixed at (re)build; per-round refreshes touch only the
	// varying fields, so a steady-state round allocates nothing. On a
	// skipped round bd is reused as-is: the shard's state is bitwise
	// unchanged, so the cached demand and curvature are bit-exact.
	bd []wire.BoundaryDemand
	bp []wire.BoundaryPrice
}

// refreshBoundary refreshes the shard's boundary demand report from the
// engine's post-sweep state. Curvature is recomputed only when the boundary
// solver consumes it (O(degree) per resource). Runs inside the sweep job —
// it touches only this shard's engine and buffers, so concurrent shard
// sweeps stay race-free.
func (s *shardRuntime) refreshBoundary(needCurv bool) {
	for j, lri := range s.localRi {
		s.bd[j].Demand = s.eng.ShareSumAt(lri)
		if needCurv {
			s.bd[j].Curvature = s.eng.CurvatureAt(lri)
		}
	}
}

// sweep runs the shard's local price dynamics against the current pinned
// boundary prices until the shard-local fixed point: the KKT/feasibility
// window rule, or — in freeze mode, and as an early exit otherwise — until
// a Step executes zero solves and reprices zero resources, meaning the
// state is bitwise frozen and further Steps are no-ops.
// maxIters always caps the sweep. Each Step is graded by the engine's
// short-circuiting certificate; a passing grade is complete, so the window
// exit keeps it — and so does a frozen exit right after one, since the no-op
// Step left the graded state as it was. Only an exit whose state went
// ungraded or failed (freeze mode, the cap, a frozen break after a failed
// grade) pays one full scan for s.cert.
func (s *shardRuntime) sweep(maxIters int, freeze bool, kktTol float64, window int, tol float64) {
	if window < 1 {
		window = 1
	}
	stable := 0
	s.iters = 0
	s.frozen = false
	graded := false // s.cert is the complete certificate of the current state
	for s.iters < maxIters {
		before := s.eng.SparseStats()
		s.eng.Step()
		s.iters++
		after := s.eng.SparseStats()
		if after.ExecutedSolves == before.ExecutedSolves &&
			after.RepricedResources == before.RepricedResources {
			s.frozen = true
			break // bitwise frozen: replaying the Step changes nothing
		}
		graded = false
		if freeze {
			continue
		}
		if s.cert, graded = s.eng.Certify(kktTol, tol); graded {
			stable++
			if stable >= window {
				break
			}
		} else {
			stable = 0
		}
	}
	if !graded {
		// Infinite tolerances have no witness: the scan runs to the end.
		s.cert, _ = s.eng.Certify(math.Inf(1), math.Inf(1))
	}
}

// stateHash is an FNV-1a 64 hash over the shard's full optimization state —
// every resource price and every subtask latency, bit for bit. Equal hashes
// across runs at every aggregator round are the fleet's per-shard
// determinism certificate.
func (s *shardRuntime) stateHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	p := s.eng.Problem()
	for ri := range p.Resources {
		mix(math.Float64bits(s.eng.MuAt(ri)))
	}
	for ti := range p.Tasks {
		for _, l := range s.eng.Controller(ti).LatMs {
			mix(math.Float64bits(l))
		}
	}
	return h
}

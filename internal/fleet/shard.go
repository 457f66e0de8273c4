package fleet

import (
	"math"

	"lla/internal/core"
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

	// Shard-level active-set state (SHARDING.md §3a): atRest records that the
	// last sweep ended on its own stopping rule — the KKT window or a no-op
	// Step — not on the iteration cap; sweptEpoch is the engine's pin epoch
	// when it ended. While both hold, the sweep's contract (iterate until the
	// rule holds) is met by the state as it stands and the round skips the
	// shard. skip caches the current round's decision.
	atRest     bool
	sweptEpoch uint64
	skip       bool

	// utility is the engine's Probe().Utility while utilityOK: only a sweep
	// or a new engine moves the shard's latencies.
	utility   float64
	utilityOK bool

	// demand[j] and curv[j] are the shard's boundary report on slot[j]: its
	// share demand and demand-response curvature after its last sweep. On a
	// skipped round they stand as they are: the shard's state is bitwise
	// unchanged, so the cached values are bit-exact.
	demand, curv []float64
}

// refreshBoundary refreshes the shard's boundary report — demand and its
// curvature, O(degree) per resource — from the engine's post-sweep state.
// Runs inside the sweep job: it touches only this shard's engine and buffers,
// so concurrent shard sweeps stay race-free.
func (s *shardRuntime) refreshBoundary() {
	for j, lri := range s.localRi {
		s.demand[j] = s.eng.ShareSumAt(lri)
		s.curv[j] = s.eng.CurvatureAt(lri)
	}
}

// sweep runs the shard's local price dynamics against the current pinned
// boundary prices until the shard-local fixed point: the KKT/feasibility
// window rule, or — in freeze mode, and as an early exit otherwise — until a
// Step executes zero solves and reprices zero resources, meaning the state is
// bitwise frozen and further Steps are no-ops. Either exit leaves the shard at
// rest; maxIters always caps the sweep, and a capped sweep does not. Each Step
// is graded by the engine's short-circuiting certificate; a passing grade is
// complete, so the window exit keeps it — and so does a frozen exit right
// after one, since the no-op Step left the graded state as it was. Only an
// exit whose state went ungraded or failed (freeze mode, the cap, a frozen
// break after a failed grade) pays one full scan for s.cert.
func (s *shardRuntime) sweep(maxIters int, freeze bool, kktTol float64, window int, tol float64) {
	stable := 0 // a window below 1 is a window of 1: the first pass reaches it
	s.iters = 0
	s.atRest, s.utilityOK = false, false
	graded := false // s.cert is the complete certificate of the current state
	for s.iters < maxIters {
		before := s.eng.SparseStats()
		s.eng.Step()
		s.iters++
		after := s.eng.SparseStats()
		if after.ExecutedSolves == before.ExecutedSolves &&
			after.RepricedResources == before.RepricedResources {
			s.atRest = true // bitwise frozen: replaying the Step changes nothing
			break
		}
		graded = false
		if freeze {
			continue
		}
		if s.cert, graded = s.eng.Certify(kktTol, tol); graded {
			stable++
			if stable >= window {
				s.atRest = true
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

// probeUtility returns the shard engine's utility, probing the engine only
// when a sweep or a new engine has moved it since the last probe.
func (s *shardRuntime) probeUtility() float64 {
	if !s.utilityOK {
		s.utility, s.utilityOK = s.eng.Probe().Utility, true
	}
	return s.utility
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
	for ti := range p.NumTasks() {
		for _, l := range s.eng.Controller(ti).LatMs {
			mix(math.Float64bits(l))
		}
	}
	return h
}

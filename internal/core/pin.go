package core

// Pinned-price support for hierarchical sharding (SHARDING.md). A fleet
// shard's engine owns only its local tasks; a boundary resource — one whose
// demand comes from tasks in more than one shard — cannot be priced from any
// single shard's partial demand. The fleet aggregator therefore pins boundary
// prices: the shard engine keeps reducing its local demand on the resource
// every Step (the aggregator reads it via ShareSumAt), but the price update
// is suppressed and the congestion flag is the externally supplied one.
//
// Pinning composes with the sparse active-set path without invalidation: a
// PinPrice that moves the price or flips the flag unsettles exactly the
// controllers that observe the pinned resource, which re-solve on their next
// Step, and a pinned resource's cached demand stays valid until one of its
// contributors re-solves with changed latencies (the ordinary dirty
// propagation).
//
// Pins are deliberately not carried by CarryFrom or checkpoints: they are
// fleet-session state owned by the aggregator, which re-pins every boundary
// price after any shard restart (it would be stale otherwise).

import "fmt"

// ResourceIndex returns the compiled index of the resource with the given
// ID, or -1 if the problem has no such resource. Callers doing repeated
// per-resource access (the fleet aggregator) resolve IDs once at setup.
func (e *Engine) ResourceIndex(id string) int {
	if ri, ok := e.p.resIdx[id]; ok {
		return ri
	}
	return -1
}

// MuAt returns the current price of resource ri.
func (e *Engine) MuAt(ri int) float64 { return e.price[ri] }

// ShareSumAt returns resource ri's total demanded share as of the latest
// resource phase (or the construction-time refresh before the first Step).
func (e *Engine) ShareSumAt(ri int) float64 { return e.shareSums[ri] }

// CongestedAt returns resource ri's congestion flag as seen by the
// controllers' adaptive path-step heuristic.
func (e *Engine) CongestedAt(ri int) bool { return e.congested[ri] }

// PinnedAt reports whether resource ri's price is externally pinned.
func (e *Engine) PinnedAt(ri int) bool { return e.pinned != nil && e.pinned[ri] }

// CurvatureAt returns resource ri's demand-response curvature
// −∂(Σ share)/∂μ at the current price, from the interior shares of the
// latest reduction (summed in compiled Subs order, like ShareSumAt).
func (e *Engine) CurvatureAt(ri int) float64 { return Curvature(e.inner[ri], e.price[ri]) }

// PinPrice fixes resource ri's price and congestion flag to externally
// supplied values. Subsequent Steps keep reducing the resource's demand but
// never move its price; the pin stays in force until UnpinPrice. The active
// set needs no blanket invalidation: a changed price or congestion bit
// unsettles the observing controllers, which solve on the next Step and
// lose their grades (certify.go).
func (e *Engine) PinPrice(ri int, mu float64, congested bool) error {
	if ri < 0 || ri >= len(e.price) {
		return fmt.Errorf("core: pin: resource index %d out of range [0,%d)", ri, len(e.price))
	}
	if !(mu >= 0) { // also rejects NaN
		return fmt.Errorf("core: pin: price must be >= 0, got %v", mu)
	}
	if e.pinned == nil {
		e.pinned = make([]bool, len(e.price))
		e.pinnedCong = make([]bool, len(e.price))
	}
	moved := e.price[ri] != mu
	if moved || e.congested[ri] != congested {
		e.unsettle(ri)
	}
	changed := !e.pinned[ri] || moved || e.pinnedCong[ri] != congested
	e.pinned[ri] = true
	e.pinnedCong[ri] = congested
	e.price[ri] = mu
	e.congested[ri] = congested
	if changed {
		e.pinEpoch++
		// The dynamics' history (Newton's safeguard) must not straddle an
		// out-of-band price move.
		e.dyn.Invalidate()
	}
	return nil
}

// PinEpoch returns the engine's pin-state epoch: it advances exactly when a
// PinPrice changes a pinned value (first pin, moved price, or flipped
// congestion bit) and on every effective UnpinPrice. An unchanged epoch
// certifies that no pinned input moved since the caller last observed it.
func (e *Engine) PinEpoch() uint64 { return e.pinEpoch }

// UnpinPrice returns resource ri's price to engine ownership; the next
// resource phase reprices it from current demand. Unpinning an unpinned
// resource is a no-op.
func (e *Engine) UnpinPrice(ri int) {
	if e.pinned == nil || ri < 0 || ri >= len(e.price) || !e.pinned[ri] {
		return
	}
	e.pinned[ri] = false
	e.stale = append(e.stale, int32(ri)) // its flag is the pinned one until reduced
	e.pinEpoch++
	// The coordinate's step was frozen while pinned; force a real reprice
	// on the next resource phase rather than trusting a stale fixed-point
	// flag.
	e.priceStable[ri] = false
	e.dyn.Invalidate()
}

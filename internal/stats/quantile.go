// Package stats provides the statistical substrate used throughout the LLA
// reproduction: exact quantiles, bounded-memory reservoir sampling,
// exponential smoothing and time-series recording.
//
// The LLA paper expresses timeliness constraints over configurable latency
// percentiles (Section 2.1) and drives its online model error correction
// from high-percentile latency samples (Section 6.3); this package supplies
// the estimators those components rely on.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile computes the q-quantile (0 <= q <= 1) of the given samples using
// linear interpolation between closest ranks. It does not mutate the input.
// It returns NaN for an empty sample set or an out-of-range q.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates the q-quantile of an ascending-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Reservoir is a bounded-memory sample recorder. Up to cap samples are kept
// exactly; beyond that, uniform reservoir sampling (Vitter's algorithm R with
// a deterministic LCG) keeps an unbiased subset. Quantiles over the reservoir
// approximate quantiles over the full stream.
type Reservoir struct {
	cap      int
	seen     int
	samples  []float64
	rngState uint64
}

// NewReservoir returns a reservoir holding at most capacity samples.
// Capacity must be positive.
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		panic(fmt.Sprintf("stats: reservoir capacity must be positive, got %d", capacity))
	}
	return &Reservoir{cap: capacity, samples: make([]float64, 0, capacity), rngState: 0x9e3779b97f4a7c15}
}

// nextRand returns a pseudo-random uint64 from a splitmix64 generator. A
// deterministic local generator keeps experiment runs reproducible without
// depending on math/rand global state.
func (r *Reservoir) nextRand() uint64 {
	r.rngState += 0x9e3779b97f4a7c15
	z := r.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add records one sample.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	// Replace a random existing slot with probability cap/seen.
	j := int(r.nextRand() % uint64(r.seen))
	if j < r.cap {
		r.samples[j] = v
	}
}

// Count reports how many samples have been offered to the reservoir.
func (r *Reservoir) Count() int { return r.seen }

// Quantile estimates the q-quantile of the observed stream.
func (r *Reservoir) Quantile(q float64) float64 {
	return Quantile(r.samples, q)
}

// Reset discards all samples but keeps the capacity and RNG state.
func (r *Reservoir) Reset() {
	r.seen = 0
	r.samples = r.samples[:0]
}

// Snapshot returns a copy of the retained samples.
func (r *Reservoir) Snapshot() []float64 {
	out := make([]float64, len(r.samples))
	copy(out, r.samples)
	return out
}

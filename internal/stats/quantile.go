// Package stats provides the statistical substrate used throughout the LLA
// reproduction: exact and streaming quantile estimation, exponential
// smoothing and time-series recording.
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

// Mean returns the mean of the retained samples.
func (r *Reservoir) Mean() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
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

// P2 is the P² (Jain & Chlamtac) streaming quantile estimator: constant
// memory, no sample retention. It tracks a single quantile q.
type P2 struct {
	q       float64
	count   int
	heights [5]float64
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64
	initial []float64
}

// NewP2 returns a streaming estimator for the q-quantile, 0 < q < 1.
func NewP2(q float64) *P2 {
	if q <= 0 || q >= 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: P2 quantile must be in (0,1), got %v", q))
	}
	p := &P2{q: q}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add feeds one observation to the estimator.
func (p *P2) Add(v float64) {
	p.count++
	if p.count <= 5 {
		p.initial = append(p.initial, v)
		if p.count == 5 {
			sort.Float64s(p.initial)
			for i := 0; i < 5; i++ {
				p.heights[i] = p.initial[i]
				p.pos[i] = float64(i + 1)
				p.want[i] = 1 + 4*p.incr[i]
			}
			p.initial = nil
		}
		return
	}

	// Locate cell k such that heights[k] <= v < heights[k+1].
	var k int
	switch {
	case v < p.heights[0]:
		p.heights[0] = v
		k = 0
	case v >= p.heights[4]:
		p.heights[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < p.heights[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.incr[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

// parabolic implements the piecewise-parabolic (P²) height update.
func (p *P2) parabolic(i int, d float64) float64 {
	num1 := p.pos[i] - p.pos[i-1] + d
	num2 := p.pos[i+1] - p.pos[i] - d
	den := p.pos[i+1] - p.pos[i-1]
	t1 := (p.heights[i+1] - p.heights[i]) / (p.pos[i+1] - p.pos[i])
	t2 := (p.heights[i] - p.heights[i-1]) / (p.pos[i] - p.pos[i-1])
	return p.heights[i] + d/den*(num1*t1+num2*t2)
}

// linear is the fallback linear height update.
func (p *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Count reports how many observations have been added.
func (p *P2) Count() int { return p.count }

// Value returns the current quantile estimate. Before five observations have
// been seen it falls back to an exact small-sample quantile; with no samples
// it returns NaN.
func (p *P2) Value() float64 {
	if p.count == 0 {
		return math.NaN()
	}
	if p.count < 5 {
		return Quantile(p.initial, p.q)
	}
	return p.heights[2]
}

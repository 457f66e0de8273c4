package stats

import (
	"fmt"
	"math"
)

// EWMA is an exponentially-weighted moving average. The paper's online model
// error correction (Section 6.3) smooths the additive latency error with
// exponential smoothing; this type implements that smoother.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns a smoother with the given smoothing factor alpha in (0,1].
// Larger alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("stats: EWMA alpha must be in (0,1], got %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds one observation into the average. The first observation
// initializes the average directly.
func (e *EWMA) Add(v float64) {
	if !e.seen {
		e.value = v
		e.seen = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value returns the current smoothed value, or NaN before any observation.
func (e *EWMA) Value() float64 {
	if !e.seen {
		return math.NaN()
	}
	return e.value
}

// Initialized reports whether at least one observation has been added.
func (e *EWMA) Initialized() bool { return e.seen }

// Reset forgets all history.
func (e *EWMA) Reset() { e.seen = false; e.value = 0 }

// Package errcorr implements the paper's online model error correction
// (Section 6.3). The share model's latency prediction (c+l)/share is not
// always accurate — job releases on a shared resource are not synchronized,
// so the model over-predicts. The corrector compares high-percentile
// measured latencies against the model's prediction, maintains an additive
// error with exponential smoothing, and feeds it back into the optimizer's
// share functions (share = (c+l)/(lat − err)).
package errcorr

import (
	"math"

	"lla/internal/stats"
)

// The corrector's parameters. The sample percentile compared against the
// model's prediction is the paper's "high percentile samples (greater than
// 90th percentile)"; the error is smoothed with factor alpha, and a period
// with fewer than minSamples samples is skipped.
const (
	alpha      = 0.3
	percentile = 0.95
	minSamples = 20
)

// Corrector tracks the additive model error of one subtask.
type Corrector struct {
	ewma *stats.EWMA
}

// New returns a corrector.
func New() *Corrector {
	return &Corrector{ewma: stats.NewEWMA(alpha)}
}

// Observe folds one measurement period into the error estimate: samples are
// the period's measured latencies, predictedMs the model's current latency
// prediction for the subtask. It returns true when the estimate was updated
// (enough samples were available).
func (c *Corrector) Observe(samples *stats.Reservoir, predictedMs float64) bool {
	if samples.Count() < minSamples {
		return false
	}
	measured := samples.Quantile(percentile)
	if math.IsNaN(measured) {
		return false
	}
	c.ewma.Add(measured - predictedMs)
	return true
}

// ErrMs returns the smoothed additive error (measured − modeled), or 0
// before any observation. A negative value means the model over-predicts.
func (c *Corrector) ErrMs() float64 {
	if !c.ewma.Initialized() {
		return 0
	}
	return c.ewma.Value()
}

// Initialized reports whether at least one period has been folded in.
func (c *Corrector) Initialized() bool { return c.ewma.Initialized() }

// Reset forgets all history.
func (c *Corrector) Reset() { c.ewma.Reset() }

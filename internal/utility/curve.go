// Package utility implements the time-utility functions of the LLA paper
// (Sections 2.1 and 3.2): concave, non-increasing curves mapping an
// aggregate task latency to a benefit value, the sum / path-weighted task
// aggregation variants, and the latency-percentile composition rule.
package utility

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Curve maps an aggregate latency (milliseconds) to a utility value. LLA
// requires curves that are non-increasing, concave and continuously
// differentiable below the critical time (Section 3.2).
type Curve interface {
	// Value returns the utility at aggregate latency x.
	Value(x float64) float64
	// Slope returns dValue/dx at x; it is <= 0 for a valid curve and
	// non-increasing in x (concavity).
	Slope(x float64) float64
}

// Linear is the curve f(x) = K*C - x used throughout the paper's
// simulations (Section 5.2 uses K=2). Its slope is the constant -1, which
// makes the task controllers' latency allocation closed-form.
type Linear struct {
	// K scales the critical time to set the zero-latency utility K*C.
	K float64
	// CMs is the task's critical time in milliseconds.
	CMs float64
}

var _ Curve = Linear{}

// Value implements Curve.
func (l Linear) Value(x float64) float64 { return l.K*l.CMs - x }

// Slope implements Curve.
func (l Linear) Slope(float64) float64 { return -1 }

// NegLatency is the curve f(x) = -x used by the paper's prototype
// experiment (Section 6.2). It is Linear with K=0 but kept as its own type
// for readability at call sites.
type NegLatency struct{}

var _ Curve = NegLatency{}

// Value implements Curve.
func (NegLatency) Value(x float64) float64 { return -x }

// Slope implements Curve.
func (NegLatency) Slope(float64) float64 { return -1 }

// Quadratic is the concave curve f(x) = A - B*x^2 (B > 0): benefit decays
// slowly at low latency and increasingly fast as latency grows, modeling
// elastic tasks with soft preferences near zero latency.
type Quadratic struct {
	A float64
	B float64
}

var _ Curve = Quadratic{}

// Value implements Curve.
func (q Quadratic) Value(x float64) float64 { return q.A - q.B*x*x }

// Slope implements Curve.
func (q Quadratic) Slope(x float64) float64 { return -2 * q.B * x }

// ExpPenalty is the concave curve f(x) = A - B*(e^(x/Tau) - 1) (B, Tau > 0):
// near-flat for x << Tau, then sharply decreasing. With small Tau relative
// to the critical time it approximates an inelastic (hard-deadline) task
// while remaining concave and continuously differentiable, as the paper
// requires for accommodating inelastic tasks.
type ExpPenalty struct {
	A   float64
	B   float64
	Tau float64
}

var _ Curve = ExpPenalty{}

// Value implements Curve.
func (e ExpPenalty) Value(x float64) float64 {
	return e.A - e.B*(math.Exp(x/e.Tau)-1)
}

// Slope implements Curve.
func (e ExpPenalty) Slope(x float64) float64 {
	return -e.B / e.Tau * math.Exp(x/e.Tau)
}

// PiecewiseLinear is a concave piecewise-linear curve defined by knots with
// strictly increasing x and non-increasing, progressively steeper slopes.
// Outside the knot range the first/last segment is extrapolated.
type PiecewiseLinear struct {
	xs []float64
	ys []float64
}

var _ Curve = (*PiecewiseLinear)(nil)

// NewPiecewiseLinear builds a piecewise-linear curve through the given
// (x, y) knots. It validates that x values strictly increase, that the curve
// is non-increasing, and that successive slopes are non-increasing
// (concavity). At least two knots are required.
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("utility: knot length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("utility: need at least 2 knots, got %d", len(xs))
	}
	prevSlope := math.Inf(1)
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("utility: knot x values must strictly increase (%v after %v)", xs[i], xs[i-1])
		}
		slope := (ys[i] - ys[i-1]) / (xs[i] - xs[i-1])
		if slope > 0 {
			return nil, fmt.Errorf("utility: curve must be non-increasing, segment %d has slope %v", i, slope)
		}
		if slope > prevSlope+1e-12 {
			return nil, fmt.Errorf("utility: curve must be concave, slope rises from %v to %v at segment %d", prevSlope, slope, i)
		}
		prevSlope = slope
	}
	p := &PiecewiseLinear{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
	}
	return p, nil
}

// Knots returns copies of the curve's knots: NewPiecewiseLinear(p.Knots())
// rebuilds it.
func (p *PiecewiseLinear) Knots() (xs, ys []float64) {
	return slices.Clone(p.xs), slices.Clone(p.ys)
}

// segment returns the index i of the segment [xs[i], xs[i+1]] containing x,
// clamped to the first/last segment for out-of-range x.
func (p *PiecewiseLinear) segment(x float64) int {
	i := sort.SearchFloat64s(p.xs, x) - 1
	if i < 0 {
		i = 0
	}
	if i > len(p.xs)-2 {
		i = len(p.xs) - 2
	}
	return i
}

// Value implements Curve.
func (p *PiecewiseLinear) Value(x float64) float64 {
	i := p.segment(x)
	slope := (p.ys[i+1] - p.ys[i]) / (p.xs[i+1] - p.xs[i])
	return p.ys[i] + slope*(x-p.xs[i])
}

// Slope implements Curve.
func (p *PiecewiseLinear) Slope(x float64) float64 {
	i := p.segment(x)
	return (p.ys[i+1] - p.ys[i]) / (p.xs[i+1] - p.xs[i])
}

// ConstSlope reports whether c's Slope ignores its argument, as Linear's and
// NegLatency's do, and if so that slope: such a task is solved in a single
// round, and one sample of its slope is a scan of all of them.
func ConstSlope(c Curve) (slope float64, ok bool) {
	switch c.(type) {
	case Linear, NegLatency:
		return c.Slope(0), true
	}
	return 0, false
}

// ValidateCurve numerically spot-checks that a curve is non-increasing and
// concave over (0, maxX]: used by workload validation and property tests to
// reject curves that would break LLA's convergence assumptions. A nil or
// zero-value *PiecewiseLinear is refused before it is sampled, and a
// non-finite slope (a zero-value ExpPenalty's NaN, a zero Tau's −Inf) or
// value (a Linear with a NaN K) is refused where it is sampled; the shape
// tests are in accepting form.
func ValidateCurve(c Curve, maxX float64) error {
	if p, ok := c.(*PiecewiseLinear); ok && (p == nil || len(p.xs) < 2) {
		return fmt.Errorf("utility: piecewise-linear curve not built by NewPiecewiseLinear")
	}
	steps := 64
	if _, ok := ConstSlope(c); ok {
		steps = 1
	}
	prevSlope := math.Inf(1)
	for i := 1; i <= steps; i++ {
		x := maxX * float64(i) / float64(steps)
		s := c.Slope(x)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("utility: slope %v at x=%v is not finite", s, x)
		}
		if v := c.Value(x); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("utility: value %v at x=%v is not finite", v, x)
		}
		if !(s <= 1e-9) {
			return fmt.Errorf("utility: slope %v > 0 at x=%v (curve must be non-increasing)", s, x)
		}
		if !(s <= prevSlope+1e-9) {
			return fmt.Errorf("utility: slope rises from %v to %v at x=%v (curve must be concave)", prevSlope, s, x)
		}
		prevSlope = s
	}
	return nil
}

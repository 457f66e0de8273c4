// Package share implements the LLA paper's resource-share model (Sections 3
// and 4.4): resources scheduled by proportional share, and the share
// function share_r(s, lat) = (c_s + l_r) / lat (Equation 10) that maps a
// subtask's allotted latency to the fraction of the resource it needs, plus
// the additively error-corrected variant used by the prototype (Section 6.3).
package share

import (
	"fmt"
	"math"
)

// Func maps between a subtask's latency and its resource share. LLA assumes
// share functions that are strictly convex, continuously differentiable and
// decreasing in latency (Section 4.2).
type Func interface {
	// Share returns the resource fraction required to achieve latency
	// latMs.
	Share(latMs float64) float64
	// Deriv returns dShare/dLat at latMs; it is negative for a valid share
	// function.
	Deriv(latMs float64) float64
	// LatencyFor inverts Share: the latency achieved when the subtask holds
	// the given share.
	LatencyFor(share float64) float64
}

// WCETLag is the paper's Equation 10: share(lat) = (c + l) / lat, where c is
// the subtask's worst-case execution time and l the resource's scheduling
// lag. ErrMs is the additive model-error correction of Section 6.3: the
// model treats the effective latency budget as (lat - ErrMs), so a negative
// error (model over-predicts) lets the same latency be met with less share.
type WCETLag struct {
	// ExecMs is the subtask WCET c_s in milliseconds.
	ExecMs float64
	// LagMs is the resource scheduling lag l_r in milliseconds.
	LagMs float64
	// ErrMs is the smoothed additive prediction error (measured minus
	// modeled latency); zero when correction is disabled.
	ErrMs float64
}

var _ Func = WCETLag{}

// numerator is the fixed cost c + l the share function amortizes over the
// latency budget.
func (w WCETLag) numerator() float64 { return w.ExecMs + w.LagMs }

// effectiveLat is the subtask's Budget.
func (w WCETLag) effectiveLat(latMs float64) float64 { return Budget(latMs, w.ErrMs) }

// Budget is the latency budget the share model amortizes its cost over: the
// error-corrected latency, floored at a tiny positive value so shares stay
// finite. Exported for the optimizer's flat-array kernels, which hold c+l
// and the error term as plain numbers rather than as a WCETLag.
func Budget(latMs, errMs float64) float64 {
	lat := latMs - errMs
	if lat < 1e-9 {
		lat = 1e-9
	}
	return lat
}

// Share implements Func.
func (w WCETLag) Share(latMs float64) float64 {
	return w.numerator() / w.effectiveLat(latMs)
}

// Deriv implements Func.
func (w WCETLag) Deriv(latMs float64) float64 {
	lat := w.effectiveLat(latMs)
	return -w.numerator() / (lat * lat)
}

// LatencyFor implements Func.
func (w WCETLag) LatencyFor(share float64) float64 {
	if share <= 0 {
		return math.Inf(1)
	}
	return w.numerator()/share + w.ErrMs
}

// Resource is a schedulable resource: a CPU or a network link managed by a
// proportional-share scheduler.
type Resource struct {
	// ID uniquely identifies the resource within a workload.
	ID string
	// Kind is informational (CPU or network link); the optimizer treats all
	// resources uniformly, as the paper prescribes.
	Kind Kind
	// Availability is B_r in [0,1]: the fraction of the resource available
	// to the competing tasks (capacity minus reservations such as the
	// prototype's 0.1 garbage-collector share).
	Availability float64
	// LagMs is the proportional-share scheduling lag l_r used by the share
	// model for subtasks on this resource.
	LagMs float64
}

// Kind labels a resource's physical type.
type Kind int

const (
	// CPU is a processing resource on a node.
	CPU Kind = iota + 1
	// Link is a network-bandwidth resource on a link between nodes.
	Link
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Link:
		return "link"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Validate checks the resource parameters.
func (r Resource) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("share: resource has empty ID")
	}
	if !(r.Availability > 0 && r.Availability <= 1) {
		return fmt.Errorf("share: resource %s availability %v outside (0,1]", r.ID, r.Availability)
	}
	if !(r.LagMs >= 0 && r.LagMs <= math.MaxFloat64) {
		return fmt.Errorf("share: resource %s lag %v negative or not finite", r.ID, r.LagMs)
	}
	if r.Kind != CPU && r.Kind != Link {
		return fmt.Errorf("share: resource %s has unknown kind %d", r.ID, int(r.Kind))
	}
	return nil
}

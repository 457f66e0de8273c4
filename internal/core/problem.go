// Package core implements LLA (Lagrangian Latency Assignment), the paper's
// central contribution (Section 4): a distributed dual-decomposition
// algorithm that assigns per-subtask latencies maximizing aggregate utility
// subject to proportional-share resource constraints (Equation 3) and
// per-path critical-time constraints (Equation 4). Task controllers solve
// the per-task Lagrangian stationarity conditions (latency allocation,
// Section 4.2) while resources and controllers update congestion prices by
// gradient projection (price computation, Section 4.3).
package core

import (
	"fmt"
	"math"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Problem is a compiled, index-based view of a workload: all name lookups,
// path enumerations and weight derivations are done once so that iterations
// touch only dense slices.
type Problem struct {
	// Tasks holds one compiled task per workload task, same order.
	Tasks []ProblemTask
	// Resources holds the compiled resources.
	Resources []ProblemResource

	src *workload.Workload
	// resIdx and taskIdx resolve a resource ID and a task name to their
	// compiled indices.
	resIdx, taskIdx map[string]int
}

// ProblemTask is the compiled per-task view used by its task controller.
type ProblemTask struct {
	// Name is the task name.
	Name string
	// CriticalMs is the task's critical time.
	CriticalMs float64
	// Curve maps aggregate weighted latency to utility.
	Curve utility.Curve
	// Weights are the per-subtask utility weights w_s for the configured
	// weight mode.
	Weights []float64
	// Paths lists every root-to-leaf path as subtask indices.
	Paths [][]int
	// PathsThrough[s] lists the indices (into Paths) of paths containing
	// subtask s.
	PathsThrough [][]int
	// Res[s] is the index into Problem.Resources of subtask s's resource.
	Res []int
	// Share[s] is subtask s's share function (WCET + resource lag; the
	// additive error term is updated in place by error correction).
	Share []share.WCETLag
	// LatMinMs[s] is the lowest admissible latency: the latency at which
	// the subtask would consume the resource's full availability.
	LatMinMs []float64
	// LatMaxMs[s] is the highest admissible latency: the critical time,
	// tightened by the subtask's rate-derived minimum share when present.
	LatMaxMs []float64
	// SubtaskNames holds the subtask names for reporting.
	SubtaskNames []string
}

// ProblemResource is the compiled per-resource view used by its price agent.
type ProblemResource struct {
	// ID is the resource identifier.
	ID string
	// Availability is B_r.
	Availability float64
	// LagMs is the scheduling lag l_r.
	LagMs float64
	// Subs lists the (task index, subtask index) pairs consuming this
	// resource.
	Subs [][2]int
}

// Compile validates the workload and builds the dense problem view.
// weightMode selects the utility variant of Section 3.2. It counts first,
// then carves every task's per-subtask slices and every resource's Subs out
// of a few flat arrays sized to the workload: set-up allocates per problem,
// not per task, and a task's data sits next to its neighbours'.
func Compile(w *workload.Workload, weightMode task.WeightMode) (*Problem, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Problem{
		Tasks:     make([]ProblemTask, len(w.Tasks)),
		Resources: make([]ProblemResource, len(w.Resources)),
		src:       w,
		resIdx:    make(map[string]int, len(w.Resources)),
		taskIdx:   make(map[string]int, len(w.Tasks)),
	}
	for i, r := range w.Resources {
		p.resIdx[r.ID] = i
		p.Resources[i] = ProblemResource{ID: r.ID, Availability: r.Availability, LagMs: r.LagMs}
	}

	// Count: resolve each subtask's resource once, and total the entries of
	// PathsThrough and of each resource's Subs.
	nsub := w.TotalSubtasks()
	res := make([]int, nsub)
	subCount := make([]int, len(w.Resources))
	nthrough, maxSub, off := 0, 0, 0
	for ti, t := range w.Tasks {
		p.taskIdx[t.Name] = ti
		paths, err := t.Paths()
		if err != nil {
			return nil, fmt.Errorf("core: task %s: %w", t.Name, err)
		}
		for _, path := range paths {
			nthrough += len(path)
		}
		for si, s := range t.Subtasks {
			res[off+si] = p.resIdx[s.Resource]
			subCount[res[off+si]]++
		}
		off += len(t.Subtasks)
		maxSub = max(maxSub, len(t.Subtasks))
	}
	subs := make([][2]int, nsub)
	for ri, n := range subCount {
		if n > 0 { // a resource nobody uses keeps a nil Subs
			p.Resources[ri].Subs, subs = subs[:0:n], subs[n:]
		}
	}

	floats := make([]float64, 3*nsub) // Weights, LatMinMs, LatMaxMs
	shares := make([]share.WCETLag, nsub)
	names := make([]string, nsub)
	through := make([][]int, nsub)
	throughIdx := make([]int, nthrough)
	count := make([]int, maxSub)
	for ti, t := range w.Tasks {
		n := len(t.Subtasks)
		paths, _ := t.Paths() // cached by the counting pass
		pt := &p.Tasks[ti]
		*pt = ProblemTask{
			Name: t.Name, CriticalMs: t.CriticalMs, Curve: w.Curves[t.Name], Paths: paths,
			Weights: floats[:n:n], LatMinMs: floats[n : 2*n : 2*n], LatMaxMs: floats[2*n : 3*n : 3*n],
			Res: res[:n:n], Share: shares[:n:n], SubtaskNames: names[:n:n], PathsThrough: through[:n:n],
		}
		floats, res, shares, names, through = floats[3*n:], res[n:], shares[n:], names[n:], through[n:]
		if err := t.WeightsInto(weightMode, pt.Weights); err != nil {
			return nil, fmt.Errorf("core: task %s: %w", t.Name, err)
		}
		clear(count[:n])
		for _, path := range paths {
			for _, s := range path {
				count[s]++
			}
		}
		for s, c := range count[:n] {
			pt.PathsThrough[s], throughIdx = throughIdx[:0:c], throughIdx[c:]
		}
		for pi, path := range paths {
			for _, s := range path {
				pt.PathsThrough[s] = append(pt.PathsThrough[s], pi)
			}
		}
		for si, s := range t.Subtasks {
			ri := pt.Res[si]
			pt.Share[si] = share.WCETLag{ExecMs: s.ExecMs, LagMs: p.Resources[ri].LagMs}
			pt.SubtaskNames[si] = s.Name
			p.refreshBounds(ti, si)
			p.Resources[ri].Subs = append(p.Resources[ri].Subs, [2]int{ti, si})
		}
	}
	return p, nil
}

// Workload returns the workload this problem was compiled from.
func (p *Problem) Workload() *workload.Workload { return p.src }

// NumSubtasks counts subtasks across all tasks.
func (p *Problem) NumSubtasks() int {
	n := 0
	for i := range p.Tasks {
		n += len(p.Tasks[i].Res)
	}
	return n
}

// ResponseSlope returns subtask (ti, si)'s demand response to its resource
// price, −∂share/∂μ ≥ 0, at the given latency and price. On the
// stationarity solution (Equation 7) lat − e = sqrt(μ·k/denom) with
// k = c + l, so share = k/(lat−e) = sqrt(k·denom/μ) and
// ∂share/∂μ = −share/(2μ) — the closed-form diagonal of the dual Hessian
// that the DiagonalNewton price dynamics consume as curvature. Bound-active
// subtasks (and free resources) do not respond: a clamped latency stays
// clamped under a marginal price move, so their response is zero. The
// interior test matches the KKT-residual one so curvature and stationarity
// agree on which subtasks count.
func (p *Problem) ResponseSlope(ti, si int, latMs, mu float64) float64 {
	pt := &p.Tasks[ti]
	if mu <= 0 {
		return 0
	}
	lo, hi := pt.LatMinMs[si], pt.LatMaxMs[si]
	if latMs <= lo*(1+1e-6) || latMs >= hi*(1-1e-6) {
		return 0
	}
	return pt.Share[si].Share(latMs) / (2 * mu)
}

// refreshBounds computes a subtask's latency bounds, at compile time and
// after a change to its share function (error correction), its minimum
// share or its resource's availability.
func (p *Problem) refreshBounds(ti, si int) {
	pt := &p.Tasks[ti]
	r := p.Resources[pt.Res[si]]
	pt.LatMinMs[si] = pt.Share[si].LatencyFor(r.Availability)
	maxLat := pt.CriticalMs
	minShare := p.src.Tasks[ti].Subtasks[si].MinShare
	if minShare > 0 {
		if cap := pt.Share[si].LatencyFor(minShare); cap < maxLat {
			maxLat = cap
		}
	}
	if maxLat < pt.LatMinMs[si] {
		// Degenerate bounds (e.g. availability too low for the deadline):
		// keep a consistent interval; the constraint violation will surface
		// in the snapshot instead.
		maxLat = pt.LatMinMs[si]
	}
	pt.LatMaxMs[si] = maxLat
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// safeSqrt returns sqrt(max(x, 0)).
func safeSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

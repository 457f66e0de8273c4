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
	"sort"
	"sync"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Problem is a compiled workload laid out for the iteration kernels
// (DESIGN.md §6): every name lookup, path enumeration and weight derivation
// is done once, and what the kernels read per subtask and per path sits in
// flat arrays, tasks back to back, read by index. Names, execution times and
// minimum shares stay in the source workload (Workload).
type Problem struct {
	// Resources holds the compiled resources.
	Resources []ProblemResource

	src *workload.Workload
	// resIdx resolves a resource ID to its compiled index; taskIdx, built on
	// first use (TaskIndex), a task name.
	resIdx, taskIdx map[string]int
	taskOnce        sync.Once

	// Per-subtask arrays. Task ti owns entries [subOff[ti], subOff[ti+1]);
	// such an entry's position is the subtask's global index. subOff, res
	// and curves alias the workload.Checked the problem was compiled from.
	subOff []int32
	res    []int32         // index into Resources
	curves []utility.Curve // per task
	weight []float64       // utility weight w_s
	latMin []float64       // latency at which the subtask takes its whole resource
	latMax []float64       // critical time, tightened by a minimum share
	cost   []float64       // share numerator c_s + l_r
	errMs  []float64       // additive model-error correction (Section 6.3)

	// Paths in CSR form. Task ti owns paths [pathOff[ti], pathOff[ti+1]);
	// path gp visits the task-local subtasks
	// pathSub[pathSubOff[gp]:pathSubOff[gp+1]] and wMin[gp] is the smallest
	// weight on it; subtask g lies on the task-local paths
	// through[throughOff[g]:throughOff[g+1]].
	pathOff    []int32
	pathSubOff []int32
	pathSub    []int32
	wMin       []float64
	throughOff []int32
	through    []int32

	// consts holds what a solve reads once per task.
	consts []taskConsts
}

// taskConsts is the per-task part of the kernel layout. constSlope is set,
// with the slope, for utility.Linear and utility.NegLatency: such a task's
// solve never needs the aggregate latency and is a single round.
type taskConsts struct {
	criticalMs, slope float64
	constSlope        bool
}

// ProblemResource is the compiled per-resource view used by its price agent.
type ProblemResource struct {
	// ID is the resource identifier.
	ID string
	// Availability is B_r.
	Availability float64
	// LagMs is the scheduling lag l_r.
	LagMs float64
	// Subs lists the global indices of the subtasks consuming this resource,
	// in compiled (task, subtask) order; Problem.SubtaskAt maps one back to
	// its task.
	Subs []int32
}

// CongestionMargin is the relative violation below which a constraint is
// treated as merely saturated rather than congested for step-size ramping.
// At LLA's optimum resources sit exactly at capacity, so without a margin
// the adaptive heuristic's congested flag would flicker forever and the
// alternating step sizes would sustain a limit cycle around the optimum.
// Price *updates* always use the exact gradients; the margin gates only the
// ramping.
const CongestionMargin = 0.01

// Congested reports whether the given demand violates the capacity
// constraint beyond the ramping margin.
func (r *ProblemResource) Congested(shareSum float64) bool {
	return shareSum > r.Availability*(1+CongestionMargin)
}

// Compile validates the workload and builds the problem. weightMode selects
// the utility variant of Section 3.2.
func Compile(w *workload.Workload, weightMode task.WeightMode) (*Problem, error) {
	ck, err := w.Check()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return compile(ck, weightMode)
}

// compile builds the problem of a checked workload, taking each subtask's
// resource and each task's curve from the proof, whose arrays it aliases. It
// counts first, then fills a few flat arrays: set-up allocates per problem,
// not per task.
func compile(ck *workload.Checked, weightMode task.WeightMode) (*Problem, error) {
	w := ck.Workload()
	nt, nsub := len(w.Tasks), ck.NumSubtasks()
	p := &Problem{
		Resources: make([]ProblemResource, len(w.Resources)),
		src:       w,
		resIdx:    make(map[string]int, len(w.Resources)),
		pathOff:   make([]int32, nt+1),
		consts:    make([]taskConsts, nt),
	}
	p.subOff, p.res, p.curves = ck.Layout()
	for i, r := range w.Resources {
		p.resIdx[r.ID] = i
		p.Resources[i] = ProblemResource{ID: r.ID, Availability: r.Availability, LagMs: r.LagMs}
	}

	// Count: total the paths, the path entries and each resource's Subs.
	subCount := make([]int32, len(w.Resources))
	npaths, nthrough := 0, 0
	var walk task.PathWalk // the checked tasks are acyclic with one root
	for _, t := range w.Tasks {
		for walk.Reset(t); walk.Next(); npaths++ {
			nthrough += len(walk.Path())
		}
	}
	for _, ri := range p.res {
		subCount[ri]++
	}
	if max(nsub, nthrough) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d subtasks on %d path entries exceed the int32 index range", nsub, nthrough)
	}
	subs := make([]int32, nsub)
	for ri, n := range subCount {
		if n > 0 { // a resource nobody uses keeps a nil Subs
			p.Resources[ri].Subs, subs = subs[:0:n], subs[n:]
		}
	}

	floats := make([]float64, 5*nsub+npaths)
	p.weight, p.latMin, p.latMax = floats[:nsub:nsub], floats[nsub:2*nsub:2*nsub], floats[2*nsub:3*nsub:3*nsub]
	p.cost, p.errMs, p.wMin = floats[3*nsub:4*nsub:4*nsub], floats[4*nsub:5*nsub:5*nsub], floats[5*nsub:]
	ints := make([]int32, npaths+1+nthrough+nsub+1+nthrough)
	p.pathSubOff, ints = ints[:npaths+1:npaths+1], ints[npaths+1:]
	p.pathSub, ints = ints[:0:nthrough], ints[nthrough:]
	p.throughOff, p.through = ints[:nsub+1:nsub+1], ints[nsub+1:]
	var cursor []int32 // per-subtask fill positions of the task being transposed
	for ti, t := range w.Tasks {
		lo, hi := int(p.subOff[ti]), int(p.subOff[ti+1])
		weights := p.weight[lo:hi]
		p.consts[ti].criticalMs = t.CriticalMs
		p.consts[ti].slope, p.consts[ti].constSlope = utility.ConstSlope(p.curves[ti])
		// Walk the paths into pathSub, counting per subtask the paths through
		// it one slot up in throughOff. Those counts are the path weights.
		plo, toff := int(p.pathOff[ti]), p.throughOff[lo+1:hi+1]
		gp := plo
		for walk.Reset(t); walk.Next(); gp++ {
			for _, s := range walk.Path() {
				p.pathSub = append(p.pathSub, int32(s))
				toff[s]++
			}
			p.pathSubOff[gp+1] = int32(len(p.pathSub))
		}
		p.pathOff[ti+1] = int32(gp)
		for g := lo; g < hi; g++ { // the counts into weights, then offsets
			p.weight[g] = float64(p.throughOff[g+1])
			p.throughOff[g+1] += p.throughOff[g]
		}
		if err := weightMode.FromPathCounts(weights, gp-plo); err != nil {
			return nil, fmt.Errorf("core: task %s: %w", t.Name, err)
		}
		// Transpose, taking each path's smallest weight on the way.
		cursor = append(cursor[:0], p.throughOff[lo:hi]...)
		for g := plo; g < gp; g++ {
			p.wMin[g] = math.Inf(1)
			for _, s := range p.pathSub[p.pathSubOff[g]:p.pathSubOff[g+1]] {
				p.through[cursor[s]] = int32(g - plo)
				cursor[s]++
				p.wMin[g] = min(p.wMin[g], weights[s])
			}
		}
		for si, s := range t.Subtasks {
			g := lo + si
			ri := p.res[g]
			p.cost[g] = s.ExecMs + p.Resources[ri].LagMs
			p.refreshBounds(ti, int32(g))
			p.Resources[ri].Subs = append(p.Resources[ri].Subs, int32(g))
		}
	}
	return p, nil
}

// Workload returns the workload this problem was compiled from.
func (p *Problem) Workload() *workload.Workload { return p.src }

// TaskIndex returns the compiled index of the named task, or false. Names are
// indexed on the first call, once: shards warm-starting on the fleet's pool
// may ask one donor at once.
func (p *Problem) TaskIndex(name string) (int, bool) {
	p.taskOnce.Do(func() { p.taskIdx = p.src.TaskIndex() })
	ti, ok := p.taskIdx[name]
	return ti, ok
}

// NumTasks counts the tasks.
func (p *Problem) NumTasks() int { return len(p.curves) }

// NumSubtasks counts subtasks across all tasks.
func (p *Problem) NumSubtasks() int { return len(p.res) }

// SubtaskAt maps a global subtask index (an entry of ProblemResource.Subs)
// to its task and its index within the task.
func (p *Problem) SubtaskAt(g int32) (ti, si int) {
	ti = sort.Search(p.NumTasks(), func(i int) bool { return p.subOff[i+1] > g })
	return ti, int(g - p.subOff[ti])
}

// NumPaths returns the number of root-to-leaf paths of task ti.
func (p *Problem) NumPaths(ti int) int { return int(p.pathOff[ti+1] - p.pathOff[ti]) }

// Path returns path pi of task ti as task-local subtask indices. The slice
// aliases the problem; callers must not mutate it.
func (p *Problem) Path(ti, pi int) []int32 {
	gp := p.pathOff[ti] + int32(pi)
	return p.pathSub[p.pathSubOff[gp]:p.pathSubOff[gp+1]]
}

// Share returns subtask (ti, si)'s share function: WCET + resource lag, with
// the current additive error term.
func (p *Problem) Share(ti, si int) share.WCETLag {
	g := p.subOff[ti] + int32(si)
	return share.WCETLag{ExecMs: p.src.Tasks[ti].Subtasks[si].ExecMs, LagMs: p.Resources[p.res[g]].LagMs, ErrMs: p.errMs[g]}
}

// ShareAt is the share of the subtask with global index g at latency latMs.
func (p *Problem) ShareAt(g int32, latMs float64) float64 {
	return p.cost[g] / share.Budget(latMs, p.errMs[g])
}

// sharesInto writes the shares of task ti's subtasks at the latencies lat
// into the share cache dst, flagged (see flagged).
func (p *Problem) sharesInto(dst []float64, ti int, lat []float64) {
	lo := p.subOff[ti]
	for si, l := range lat {
		g := lo + int32(si)
		dst[si] = flagged(p.ShareAt(g, l), l, p.latMin[g], p.latMax[g])
	}
}

// flagged is share s at latency lat as a share cache holds it: negated when
// the subtask is bound-active (not interior to [lo, hi]). The demand
// reduction then reads which subtasks respond to the price — the curvature
// numerator — off the sign of the value it loads anyway (Engine.demand),
// instead of gathering each subtask's latency and bounds a second time.
func flagged(s, lat, lo, hi float64) float64 {
	if interior(lat, lo, hi) {
		return s
	}
	return -s
}

// aggregate returns task ti's weighted latency sum Σ w_s · lat_s.
func (p *Problem) aggregate(ti int, lat []float64) float64 {
	sum := 0.0
	for si, w := range p.weight[p.subOff[ti]:p.subOff[ti+1]] {
		sum += w * lat[si]
	}
	return sum
}

// criticalPath returns task ti's longest path latency under lat and the
// index of that path.
func (p *Problem) criticalPath(ti int, lat []float64) (float64, int) {
	best, bestIdx := 0.0, -1
	for gp := p.pathOff[ti]; gp < p.pathOff[ti+1]; gp++ {
		sum := 0.0
		for _, s := range p.pathSub[p.pathSubOff[gp]:p.pathSubOff[gp+1]] {
			sum += lat[s]
		}
		if bestIdx < 0 || sum > best {
			best, bestIdx = sum, int(gp-p.pathOff[ti])
		}
	}
	return best, bestIdx
}

// interior reports whether latMs lies strictly inside the bounds [lo, hi] —
// the test the KKT residual and the curvature share, so stationarity and
// demand response agree on which subtasks count.
func interior(latMs, lo, hi float64) bool {
	return !(latMs <= lo*(1+1e-6) || latMs >= hi*(1-1e-6))
}

// Interior reports whether the subtask with global index g is strictly
// inside its latency bounds at latMs: only interior subtasks respond to their
// resource's price (Curvature).
func (p *Problem) Interior(g int32, latMs float64) bool {
	return interior(latMs, p.latMin[g], p.latMax[g])
}

// refreshBounds computes the latency box of subtask g of task ti (Box), at
// compile time and after a change to its share function (error correction),
// its minimum share or its resource's availability.
func (p *Problem) refreshBounds(ti int, g int32) {
	minShare := p.src.Tasks[ti].Subtasks[g-p.subOff[ti]].MinShare
	p.latMin[g], p.latMax[g] = Box(p.cost[g], p.errMs[g], p.Resources[p.res[g]].Availability, minShare, p.consts[ti].criticalMs)
}

// Box is the latency box [lo, hi] of a subtask with share numerator cost
// (c + l), error term errMs and minimum share minShare (0 for none) on a
// resource of availability b, in a task of critical time criticalMs: lo is
// share.WCETLag.LatencyFor(b), hi the critical time tightened to
// LatencyFor(minShare). A degenerate box (hi below lo: availability too low
// for the deadline) is clamped up to [lo, lo]; the violation surfaces in
// the snapshot instead.
func Box(cost, errMs, b, minShare, criticalMs float64) (lo, hi float64) {
	lo, hi = cost/b+errMs, criticalMs
	if minShare > 0 {
		hi = min(hi, cost/minShare+errMs)
	}
	return lo, max(hi, lo)
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

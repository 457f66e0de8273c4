package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"

	"lla/internal/par"
	"lla/internal/task"
	"lla/internal/utility"
)

// Checked is the product of validation: proof that a workload passed every
// check, with what the checks had to resolve anyway — each subtask's index
// into Resources, each task's curve — so that nothing downstream validates
// or looks a name up again. It is immutable and describes the workload as it
// was checked, which must not be modified afterwards. No task of a checked
// workload has two subtasks on one resource, so a task's resolved row is
// also the list of distinct resources it touches.
type Checked struct {
	w *Workload
	// Task ti's subtask si runs on Resources[res[subOff[ti]+si]].
	subOff []int32
	res    []int32
	curves []utility.Curve
	// resIdx resolves a resource ID, and is shared by successors with the
	// same ID table. Nil on a projection.
	resIdx map[string]int32
}

// SharesIDs reports whether c shares prev's resource ID table, as Recheck
// makes it do exactly when c's resource IDs are, position by position,
// prev's: then a resolved row indexes the same resources in both.
func (c *Checked) SharesIDs(prev *Checked) bool {
	return c.resIdx != nil && reflect.ValueOf(c.resIdx).UnsafePointer() == reflect.ValueOf(prev.resIdx).UnsafePointer()
}

// Workload returns the workload the proof is of.
func (c *Checked) Workload() *Workload { return c.w }

// NumTasks returns the workload's task count.
func (c *Checked) NumTasks() int { return len(c.curves) }

// NumResources returns the workload's resource count.
func (c *Checked) NumResources() int { return len(c.w.Resources) }

// NumSubtasks counts subtasks across all tasks.
func (c *Checked) NumSubtasks() int { return len(c.res) }

// TaskResources returns, per subtask of task ti, its index into Resources.
// The slice aliases the proof; callers must not mutate it.
func (c *Checked) TaskResources(ti int) []int32 { return c.res[c.subOff[ti]:c.subOff[ti+1]] }

// Layout returns the proof's flat arrays: task ti's subtasks run on the
// resources res[subOff[ti]:subOff[ti+1]] and curves[ti] is its curve. The
// slices alias the proof; callers must not mutate them.
func (c *Checked) Layout() (subOff, res []int32, curves []utility.Curve) {
	return c.subOff, c.res, c.curves
}

// Validate checks the workload for structural consistency: valid tasks and
// resources, unique names, every referenced resource defined, a curve for
// every task, and (per the paper's simplifying assumption in Section 2.1)
// no two subtasks of the same task on the same resource.
func (w *Workload) Validate() error {
	_, err := w.Check()
	return err
}

// Check is Validate returning its proof.
func (w *Workload) Check() (*Checked, error) {
	ck, _, _, err := (&Checked{w: new(Workload)}).Recheck(w, nil)
	return ck, err
}

// TaskIndex maps each task's name to its index in w.
func (w *Workload) TaskIndex() map[string]int {
	at := make(map[string]int, len(w.Tasks))
	for ti, t := range w.Tasks {
		at[t.Name] = ti
	}
	return at
}

// minChunk is the fewest tasks a chunk of Recheck's per-task part holds, so
// that a small workload is checked inline instead of being handed to workers.
const minChunk = 2048

// Recheck validates next, the successor of the workload c proves, in one
// pass that reads each task, its curve and its predecessor once. It returns
// next's proof with, per task, prev — its index in the predecessor, matched
// by name, or -1 if it joined — and dirty: it joined, differs from its
// predecessor in a way a compiled problem can see, or uses a changed
// resource. Both are nil when the predecessor has no tasks. taskAt maps the
// predecessor's task names to their indices (nil: built here); it is
// consulted only for a task that is not at its old position.
//
// A task that is field for field its predecessor, curve included, inherits
// its verdict and its resolved row: the per-task checks are a pure function
// of the task's fields, its curve and the resource ID table, and when that
// table is not positionally the predecessor's every task is checked afresh.
// Workload-level checks — resources, unique task names — are never
// inherited, and the error is the one Validate gives: the first failure in
// task order, a task's own checks before its name's uniqueness. Equality is
// of content: what next shares with the predecessor must not have been
// modified.
//
// Resources are checked serially, then each task's own checks and diff in at
// most GOMAXPROCS contiguous chunks of at least minChunk tasks (SHARDING.md
// §3b), then name uniqueness serially in task order, up to the first task
// that failed.
func (c *Checked) Recheck(next *Workload, taskAt map[string]int) (ck *Checked, prev []int, dirty []bool, err error) {
	old := c.w
	fail := func(format string, args ...any) (*Checked, []int, []bool, error) {
		return nil, nil, nil, fmt.Errorf("workload %s: "+format, append([]any{next.Name}, args...)...)
	}
	if len(next.Tasks) == 0 {
		return fail("no tasks")
	}
	if len(next.Resources) == 0 {
		return fail("no resources")
	}

	sameIDs := c.resIdx != nil && len(next.Resources) == len(old.Resources)
	resChanged := make([]bool, len(next.Resources))
	for ri, r := range next.Resources {
		if err := r.Validate(); err != nil {
			return fail("%w", err)
		}
		if sameIDs = sameIDs && r.ID == old.Resources[ri].ID; sameIDs {
			resChanged[ri] = r != old.Resources[ri]
		}
	}
	resIdx := c.resIdx
	if !sameIDs {
		resIdx = make(map[string]int32, len(next.Resources))
		for ri, r := range next.Resources {
			if _, dup := resIdx[r.ID]; dup {
				return fail("duplicate resource %q", r.ID)
			}
			resIdx[r.ID] = int32(ri)
			oi, ok := c.resIdx[r.ID]
			resChanged[ri] = !ok || r != old.Resources[oi]
		}
	}

	if taskAt == nil && len(old.Tasks) > 0 {
		taskAt = old.TaskIndex()
	}
	nt := len(next.Tasks)
	ck = &Checked{w: next, resIdx: resIdx, subOff: make([]int32, nt+1), curves: make([]utility.Curve, nt)}
	if len(old.Tasks) > 0 {
		prev, dirty = make([]int, nt), make([]bool, nt)
	}
	resMoved := slices.Contains(resChanged, true)

	// recheck runs all that is task ti's alone — its match, its diff, and
	// unless it inherits its row its checks — and writes its row at res[off:],
	// prev and dirty, returning the row's length. Per resource, lastTask is the
	// last task the chunk saw on it (1-based) and lastSub that task's subtask.
	recheck := func(tv *task.Validator, lastTask, lastSub []int32, ti int, off int32) (int32, error) {
		t := next.Tasks[ti]
		if t == nil {
			return 0, fmt.Errorf("task %d is nil", ti)
		}
		oi := -1
		if ti < len(old.Tasks) && old.Tasks[ti].Name == t.Name {
			oi = ti
		} else if at, ok := taskAt[t.Name]; ok {
			oi = at
		}
		curve := ck.curves[ti]
		changed := oi < 0 || TaskChanged(old.Tasks[oi], t, c.curves[oi], curve)
		row := ck.res[off : off+int32(len(t.Subtasks))]
		if !changed && sameIDs {
			copy(row, c.TaskResources(oi))
		} else {
			if err := tv.Validate(t); err != nil {
				return 0, err
			}
			for si, s := range t.Subtasks {
				ri, ok := resIdx[s.Resource]
				if !ok {
					return 0, fmt.Errorf("task %s subtask %s references unknown resource %q", t.Name, s.Name, s.Resource)
				}
				if lastTask[ri] == int32(ti+1) {
					return 0, fmt.Errorf("task %s has subtasks %s and %s on the same resource %q", t.Name, t.Subtasks[lastSub[ri]].Name, s.Name, s.Resource)
				}
				lastTask[ri], lastSub[ri], row[si] = int32(ti+1), int32(si), ri
			}
			if curve == nil {
				return 0, fmt.Errorf("task %s has no utility curve", t.Name)
			}
			if err := utility.ValidateCurve(curve, t.CriticalMs); err != nil {
				return 0, fmt.Errorf("task %s: %w", t.Name, err)
			}
		}
		if prev != nil {
			prev[ti], dirty[ti] = oi, changed || resMoved && slices.ContainsFunc(row, func(ri int32) bool { return resChanged[ri] })
		}
		return int32(len(row)), nil
	}

	// Chunk k covers tasks [k*nt/chunks, (k+1)*nt/chunks). It first looks up
	// their curves, in a loop of its own where the map's cache misses overlap,
	// and counts their subtasks, which fixes its rows' offset base[k]; then it
	// rechecks them up to its first failure, failAt[k], errs[k] (stored once).
	chunks := max(min(runtime.GOMAXPROCS(0), nt/minChunk), 1)
	base, failAt, errs := make([]int32, chunks+1), make([]int, chunks), make([]error, chunks)
	pool := par.New(chunks - 1)
	defer pool.Close()
	pool.Run(chunks, func(k int) {
		lo, n := k*nt/chunks, int32(0)
		for ti, t := range next.Tasks[lo : (k+1)*nt/chunks] {
			if t != nil { // else refused by recheck
				ck.curves[lo+ti], n = next.Curves[t.Name], n+int32(len(t.Subtasks))
			}
		}
		base[k+1] = n
	})
	for k := range chunks {
		base[k+1] += base[k]
	}
	ck.res = make([]int32, base[chunks])
	pool.Run(chunks, func(k int) {
		var tv task.Validator
		lastTask, lastSub := make([]int32, len(next.Resources)), make([]int32, len(next.Resources))
		ti, off, err := k*nt/chunks, base[k], error(nil)
		for n := int32(0); ti < (k+1)*nt/chunks && err == nil; ti++ {
			n, err = recheck(&tv, lastTask, lastSub, ti, off)
			off += n
			ck.subOff[ti+1] = off
		}
		failAt[k], errs[k] = ti-1, err
	})
	stop, stopErr := nt, error(nil)
	if k := slices.IndexFunc(errs, func(err error) bool { return err != nil }); k >= 0 {
		stop, stopErr = failAt[k], errs[k]
	}

	// Names are unique in the predecessor, so two tasks of one name either
	// claim the same predecessor or both have none.
	claimed := make([]bool, len(old.Tasks))
	joined := make(map[string]struct{}, max(nt-len(old.Tasks), 0))
	for ti := range stop {
		dup := false
		if prev != nil && prev[ti] >= 0 {
			dup, claimed[prev[ti]] = claimed[prev[ti]], true
		} else if _, dup = joined[next.Tasks[ti].Name]; !dup {
			joined[next.Tasks[ti].Name] = struct{}{}
		}
		if dup {
			return fail("duplicate task %q", next.Tasks[ti].Name)
		}
	}
	if stopErr != nil {
		return fail("%w", stopErr)
	}
	return ck, prev, dirty, nil
}

// TaskChanged reports whether a surviving task's definition differs in any
// way validation or a compiled problem can see. Curves are compared as
// interface values — dynamic type and fields — except pointer-typed ones
// (such as *utility.PiecewiseLinear), which are compared by what they point
// to. ca must not be nil; a nil cb differs from it, and so does a b whose
// subtasks were not added through AddSubtask.
func TaskChanged(a, b *task.Task, ca, cb utility.Curve) bool {
	if a.CriticalMs != b.CriticalMs || a.Trigger != b.Trigger || !slices.Equal(a.Subtasks, b.Subtasks) || !a.SameGraph(b) {
		return true
	}
	// A value type that == cannot compare would panic below.
	if t := reflect.TypeOf(ca); t.Kind() == reflect.Pointer || !t.Comparable() {
		return !reflect.DeepEqual(ca, cb)
	}
	return ca != cb
}

// Project returns the proof of the sub-workload holding tasks taskIdx
// (distinct, at least one) of c's workload under the given name: the tasks
// shared, not copied, with the resources they use. Every per-task and
// per-resource verdict carries over, so the projection needs no check of its
// own. Task and resource order are kept, which makes the compiled sub-problem
// a projection of the full one — every per-task datum identical, every
// resource's Subs list the original filtered to these tasks — so an
// overlap-free fleet shard reproduces the single engine's arithmetic bit for
// bit.
func (c *Checked) Project(name string, taskIdx []int) *Checked {
	w := c.w
	sub := &Workload{
		Name:   name,
		Tasks:  make([]*task.Task, len(taskIdx)),
		Curves: make(map[string]utility.Curve, len(taskIdx)),
	}
	out := &Checked{w: sub, subOff: make([]int32, len(taskIdx)+1), curves: make([]utility.Curve, len(taskIdx))}
	local := make([]int32, len(w.Resources)) // 1 + the resource's index in sub, 0 while unused
	n := 0
	for i, ti := range taskIdx {
		t := w.Tasks[ti]
		sub.Tasks[i], out.curves[i] = t, c.curves[ti]
		sub.Curves[t.Name] = c.curves[ti]
		for _, ri := range c.TaskResources(ti) {
			local[ri] = 1
		}
		n += len(t.Subtasks)
		out.subOff[i+1] = int32(n)
	}
	for ri, r := range w.Resources {
		if local[ri] != 0 {
			sub.Resources = append(sub.Resources, r)
			local[ri] = int32(len(sub.Resources))
		}
	}
	out.res = make([]int32, 0, n)
	for _, ti := range taskIdx {
		for _, ri := range c.TaskResources(ti) {
			out.res = append(out.res, local[ri]-1)
		}
	}
	return out
}

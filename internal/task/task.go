// Package task implements the end-to-end task model of the LLA paper
// (Section 2): tasks composed of subtasks related by a precedence DAG with a
// unique root, where each subtask consumes exactly one resource. It provides
// path enumeration, path-count weights for the paper's utility variants
// (Section 3.2), triggering-event specifications, and validation.
package task

import (
	"fmt"
	"math"
	"slices"
)

// Subtask is one stage of an end-to-end task. A subtask consumes exactly one
// resource (a CPU or a network link) and is characterized by its worst-case
// execution time on that resource.
type Subtask struct {
	// Name identifies the subtask within its task (e.g. "T12").
	Name string
	// Resource is the identifier of the resource the subtask consumes.
	Resource string
	// ExecMs is the worst-case execution time (WCET) in milliseconds. For a
	// network subtask this is the worst-case transmission time.
	ExecMs float64
	// MinShare, if positive, is the lowest admissible resource share for
	// this subtask. A subtask with a periodic arrival of rate jobs/sec and
	// WCET c needs share >= rate*c to keep its queue bounded (Section 6.2);
	// the optimizer never allocates below this floor.
	MinShare float64
}

// Task is a distributed end-to-end computation: a set of subtasks, a
// precedence DAG over them, a triggering-event specification and a critical
// time (end-to-end deadline).
type Task struct {
	// Name identifies the task.
	Name string
	// CriticalMs is the critical time C_i: the deadline that no path's
	// end-to-end latency may exceed.
	CriticalMs float64
	// Subtasks holds the task's subtasks; graph edges refer to indices in
	// this slice.
	Subtasks []Subtask
	// Trigger describes the arrival pattern of triggering events that
	// release instances (job sets) of this task.
	Trigger Trigger

	// The precedence graph, one row per subtask: subtask i's successors are
	// succ[succEnd[i-1]:succEnd[i]] (from 0 for i = 0), in edge order, and
	// indeg[i] counts its predecessors.
	succEnd, succ, indeg []int
}

// New returns a task with the given name and critical time and no subtasks.
func New(name string, criticalMs float64) *Task {
	return &Task{Name: name, CriticalMs: criticalMs}
}

// AddSubtask appends a subtask and returns its index.
func (t *Task) AddSubtask(s Subtask) int {
	t.Subtasks = append(t.Subtasks, s)
	t.succEnd = append(t.succEnd, len(t.succ))
	t.indeg = append(t.indeg, 0)
	return len(t.Subtasks) - 1
}

// AddEdge records a precedence constraint: subtask from must complete before
// subtask to is released. Indices must refer to existing subtasks.
func (t *Task) AddEdge(from, to int) error {
	n := len(t.Subtasks)
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("task %s: edge (%d,%d) out of range [0,%d)", t.Name, from, to, n)
	}
	if from == to {
		return fmt.Errorf("task %s: self edge on subtask %d", t.Name, from)
	}
	for _, s := range t.Successors(from) {
		if s == to {
			return fmt.Errorf("task %s: duplicate edge (%d,%d)", t.Name, from, to)
		}
	}
	t.succ = slices.Insert(t.succ, t.succEnd[from], to)
	for i := from; i < n; i++ {
		t.succEnd[i]++
	}
	t.indeg[to]++
	return nil
}

// MustEdge is AddEdge that panics on error; intended for static workload
// construction where edges are known to be valid.
func (t *Task) MustEdge(from, to int) {
	if err := t.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Successors returns the successor indices of subtask i. The returned slice
// must not be modified.
func (t *Task) Successors(i int) []int {
	lo := 0
	if i > 0 {
		lo = t.succEnd[i-1]
	}
	return t.succ[lo:t.succEnd[i]:t.succEnd[i]]
}

// InDegree returns the number of predecessors of subtask i.
func (t *Task) InDegree(i int) int { return t.indeg[i] }

// SameGraph reports whether u has t's precedence graph, edge for edge in the
// same order, comparing the rows as whole arrays (the in-degrees follow).
func (t *Task) SameGraph(u *Task) bool {
	return slices.Equal(t.succEnd, u.succEnd) && slices.Equal(t.succ, u.succ)
}

// Root returns the index of the unique root subtask (no predecessors), or an
// error if there is not exactly one.
func (t *Task) Root() (int, error) {
	root := -1
	for i := range t.Subtasks {
		if t.indeg[i] == 0 {
			if root >= 0 {
				return -1, fmt.Errorf("task %s: multiple roots (%d and %d)", t.Name, root, i)
			}
			root = i
		}
	}
	if root < 0 {
		if len(t.Subtasks) == 0 {
			return -1, fmt.Errorf("task %s: no subtasks", t.Name)
		}
		return -1, fmt.Errorf("task %s: no root (cycle through every subtask)", t.Name)
	}
	return root, nil
}

// topo runs Kahn's algorithm in buf (len >= 2n): the first half holds the
// in-degrees, the second the FIFO queue, whose push order is the topological
// order. The result has n entries iff the graph is acyclic.
func (t *Task) topo(buf []int) []int {
	n := len(t.Subtasks)
	indeg, order := buf[:n], buf[n:n:2*n]
	for i := range indeg {
		if indeg[i] = t.indeg[i]; indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range t.Successors(order[head]) {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	return order
}

// Validator holds Validate's working storage, so validating the tasks of a
// workload through one Validator allocates per workload, not per task. The
// zero value is ready to use.
type Validator struct {
	ints  []int
	names map[string]struct{}
}

// Validate checks the structural invariants required by the model: a name,
// at least one subtask, acyclicity, a unique root (which together make every
// subtask reachable from it), positive finite execution times and critical
// time, and MinShare in [0,1]. Range checks are written in the accepting form, so NaN
// fails every one of them.
func (t *Task) Validate() error { return new(Validator).Validate(t) }

// Validate is Task.Validate on the validator's reused storage.
func (v *Validator) Validate(t *Task) error {
	if t.Name == "" {
		return fmt.Errorf("task has empty name")
	}
	n := len(t.Subtasks)
	if n == 0 {
		return fmt.Errorf("task %s: no subtasks", t.Name)
	}
	if !(t.CriticalMs > 0 && t.CriticalMs <= math.MaxFloat64) {
		return fmt.Errorf("task %s: critical time must be positive and finite, got %v", t.Name, t.CriticalMs)
	}
	if len(t.succEnd) != n || len(t.indeg) != n { // a Task literal: no graph slots
		return fmt.Errorf("task %s: subtasks not added through AddSubtask or Builder", t.Name)
	}
	if cap(v.ints) < 2*n {
		v.ints = make([]int, 2*n)
	}
	if len(t.topo(v.ints[:2*n])) != n {
		return fmt.Errorf("task %s: precedence graph has a cycle", t.Name)
	}
	// Acyclic with a single root: every subtask is reachable from it, since
	// walking predecessors back from any subtask can only end there.
	if _, err := t.Root(); err != nil {
		return err
	}
	const smallTask = 16 // at most this many subtask names are compared pairwise
	if n > smallTask {
		if v.names == nil {
			v.names = make(map[string]struct{}, n)
		}
		clear(v.names)
	}
	for i, s := range t.Subtasks {
		if s.Name == "" {
			return fmt.Errorf("task %s: subtask %d has empty name", t.Name, i)
		}
		dup := n <= smallTask && slices.ContainsFunc(t.Subtasks[:i], func(p Subtask) bool { return p.Name == s.Name })
		if n > smallTask {
			_, dup = v.names[s.Name]
			v.names[s.Name] = struct{}{}
		}
		if dup {
			return fmt.Errorf("task %s: duplicate subtask name %q", t.Name, s.Name)
		}
		if s.Resource == "" {
			return fmt.Errorf("task %s: subtask %s has no resource", t.Name, s.Name)
		}
		if !(s.ExecMs > 0 && s.ExecMs <= math.MaxFloat64) {
			return fmt.Errorf("task %s: subtask %s WCET must be positive and finite, got %v", t.Name, s.Name, s.ExecMs)
		}
		if !(s.MinShare >= 0 && s.MinShare <= 1) {
			return fmt.Errorf("task %s: subtask %s MinShare %v outside [0,1]", t.Name, s.Name, s.MinShare)
		}
	}
	if err := t.Trigger.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", t.Name, err)
	}
	return nil
}

// Paths enumerates every root-to-leaf path as a slice of subtask indices, in
// PathWalk's order, carved from one array; nothing is cached on the task.
func (t *Task) Paths() ([][]int, error) {
	if _, err := t.Root(); err != nil {
		return nil, err
	}
	if n := len(t.Subtasks); len(t.topo(make([]int, 2*n))) != n {
		return nil, fmt.Errorf("task %s: precedence graph has a cycle", t.Name)
	}
	var w PathWalk
	count, entries := 0, 0
	for w.Reset(t); w.Next(); count++ {
		entries += len(w.Path())
	}
	ints, paths := make([]int, entries), make([][]int, 0, count)
	for w.Reset(t); w.Next(); {
		paths = append(paths, carve(&ints, w.Path()))
	}
	return paths, nil
}

// PathWalk enumerates a task's root-to-leaf paths depth first, successors in
// edge order, on storage reused from task to task, so that a walk allocates
// nothing once it has grown to the largest task. The zero value is ready to
// use. The task must be acyclic with one root (Validate) and must not change.
type PathWalk struct {
	t *Task
	// path[:depth] is the walk's stack; next[k] counts the successors of
	// path[k] entered so far (1 on a leaf once its path has been returned).
	// A walk moves depth, not slice headers, whose stores fire GC barriers.
	path, next []int
	depth      int
}

// Reset starts a walk over t's paths.
func (w *PathWalk) Reset(t *Task) {
	if n := len(t.Subtasks); len(w.path) < n {
		w.path, w.next = make([]int, n), make([]int, n)
	}
	w.t, w.depth = t, 0
	if root := slices.Index(t.indeg, 0); root >= 0 {
		w.path[0], w.next[0], w.depth = root, 0, 1
	}
}

// Next moves to the walk's next path and reports whether there is one.
func (w *PathWalk) Next() bool {
	for w.depth > 0 {
		k := w.depth - 1
		switch succ := w.t.Successors(w.path[k]); {
		case len(succ) == 0 && w.next[k] == 0:
			w.next[k] = 1
			return true
		case w.next[k] < len(succ):
			w.path[k+1], w.next[k+1], w.next[k], w.depth = succ[w.next[k]], 0, w.next[k]+1, k+2
		default:
			w.depth = k
		}
	}
	return false
}

// Path returns the current path's subtask indices. It is valid until the next
// call to Next or Reset, and must not be modified.
func (w *PathWalk) Path() []int { return w.path[:w.depth] }

// CriticalPathMs returns the maximum over paths of the summed latencies, and
// the index (into Paths()) of a maximizing path. The latencies slice is
// indexed by subtask index.
func (t *Task) CriticalPathMs(latMs []float64) (float64, int, error) {
	paths, err := t.Paths()
	if err != nil {
		return 0, -1, err
	}
	if len(latMs) != len(t.Subtasks) {
		return 0, -1, fmt.Errorf("task %s: latency vector length %d, want %d", t.Name, len(latMs), len(t.Subtasks))
	}
	best, bestIdx := 0.0, -1
	for i, p := range paths {
		sum := 0.0
		for _, s := range p {
			sum += latMs[s]
		}
		if bestIdx < 0 || sum > best {
			best, bestIdx = sum, i
		}
	}
	return best, bestIdx, nil
}

// Clone returns a deep copy of the task (graph, subtasks and trigger) made by
// CloneN: its slices share backing arrays, so an append reallocates.
func (t *Task) Clone() *Task { return CloneN([]*Task{t}, 1)[0] }

// cloneChunk is how many copies CloneN carves from one set of arrays: a copy
// that outlives the rest of its batch keeps its chunk alive, not the batch.
const cloneChunk = 256

// CloneN returns k deep copies of the tasks in src, copy c of src[i] at index
// c*len(src)+i. Every cloneChunk copies carve their tasks, subtasks and graph
// arrays from one shared array each, every window clipped to its length:
// AddSubtask, AddEdge or an append to Subtasks on one copy reallocates that
// copy's slice and never writes into a neighbour's.
func CloneN(src []*Task, k int) []*Task {
	out := make([]*Task, k*len(src))
	for lo := 0; lo < len(out); lo += cloneChunk {
		chunk, nsub, nint := out[lo:min(lo+cloneChunk, len(out))], 0, 0
		for j := range chunk {
			t := src[(lo+j)%len(src)]
			nsub, nint = nsub+len(t.Subtasks), nint+len(t.succEnd)+len(t.succ)+len(t.indeg)
		}
		tasks, subs, ints := make([]Task, len(chunk)), make([]Subtask, nsub), make([]int, nint)
		for j := range chunk {
			t, c := src[(lo+j)%len(src)], &tasks[j]
			*c = Task{Name: t.Name, CriticalMs: t.CriticalMs, Trigger: t.Trigger}
			if len(t.Subtasks) > 0 { // no subtasks stay nil
				c.Subtasks = carve(&subs, t.Subtasks)
			}
			c.succEnd, c.indeg = carve(&ints, t.succEnd), carve(&ints, t.indeg)
			if len(t.succ) > 0 { // no edges stay nil
				c.succ = carve(&ints, t.succ)
			}
			chunk[j] = c
		}
	}
	return out
}

// carve copies src into the head of *buf, advances *buf past it and returns
// the copy clipped to its length.
func carve[T any](buf *[]T, src []T) []T {
	n := len(src)
	s := (*buf)[:n:n]
	copy(s, src)
	*buf = (*buf)[n:]
	return s
}

// Edges returns all precedence edges as (from, to) pairs in deterministic
// order.
func (t *Task) Edges() [][2]int {
	var edges [][2]int
	for from := range t.succEnd {
		for _, to := range t.Successors(from) {
			edges = append(edges, [2]int{from, to})
		}
	}
	return edges
}

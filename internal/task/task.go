// Package task implements the end-to-end task model of the LLA paper
// (Section 2): tasks composed of subtasks related by a precedence DAG with a
// unique root, where each subtask consumes exactly one resource. It provides
// path enumeration, path-count weights for the paper's utility variants
// (Section 3.2), triggering-event specifications, and validation.
package task

import (
	"errors"
	"fmt"
	"sync"
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

	// succ[i] lists the successor subtask indices of subtask i.
	succ [][]int
	// pred[i] lists the predecessor subtask indices of subtask i.
	pred [][]int

	// pathMu guards the lazily computed path cache: workloads share *Task
	// pointers, and engines may be compiled from the same workload on
	// different goroutines (e.g. standalone distributed nodes).
	pathMu sync.Mutex
	// Lazily computed under pathMu, invalidated by mutation.
	paths   [][]int
	pathsOK bool
}

// New returns a task with the given name and critical time and no subtasks.
func New(name string, criticalMs float64) *Task {
	return &Task{Name: name, CriticalMs: criticalMs}
}

// AddSubtask appends a subtask and returns its index.
func (t *Task) AddSubtask(s Subtask) int {
	t.Subtasks = append(t.Subtasks, s)
	t.succ = append(t.succ, nil)
	t.pred = append(t.pred, nil)
	t.invalidatePaths()
	return len(t.Subtasks) - 1
}

// invalidatePaths drops the memoized path enumeration after a mutation.
func (t *Task) invalidatePaths() {
	t.pathMu.Lock()
	t.pathsOK = false
	t.pathMu.Unlock()
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
	for _, s := range t.succ[from] {
		if s == to {
			return fmt.Errorf("task %s: duplicate edge (%d,%d)", t.Name, from, to)
		}
	}
	t.succ[from] = append(t.succ[from], to)
	t.pred[to] = append(t.pred[to], from)
	t.invalidatePaths()
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
func (t *Task) Successors(i int) []int { return t.succ[i] }

// Predecessors returns the predecessor indices of subtask i. The returned
// slice must not be modified.
func (t *Task) Predecessors(i int) []int { return t.pred[i] }

// Root returns the index of the unique root subtask (no predecessors), or an
// error if there is not exactly one.
func (t *Task) Root() (int, error) {
	root := -1
	for i := range t.Subtasks {
		if len(t.pred[i]) == 0 {
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

// Leaves returns the indices of all end subtasks (no successors).
func (t *Task) Leaves() []int {
	var leaves []int
	for i := range t.Subtasks {
		if len(t.succ[i]) == 0 {
			leaves = append(leaves, i)
		}
	}
	return leaves
}

// TopoSort returns the subtask indices in a topological order, or an error
// if the graph has a cycle.
func (t *Task) TopoSort() ([]int, error) {
	order := t.topo(make([]int, 2*len(t.Subtasks)))
	if len(order) != len(t.Subtasks) {
		return nil, fmt.Errorf("task %s: precedence graph has a cycle", t.Name)
	}
	return order, nil
}

// topo runs Kahn's algorithm in buf (len >= 2n): the first half holds the
// in-degrees, the second the FIFO queue, whose push order is the topological
// order. The result has n entries iff the graph is acyclic.
func (t *Task) topo(buf []int) []int {
	n := len(t.Subtasks)
	indeg, order := buf[:n], buf[n:n:2*n]
	for i := range indeg {
		if indeg[i] = len(t.pred[i]); indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range t.succ[order[head]] {
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
	seen  []bool
	names map[string]struct{}
}

// Validate checks the structural invariants required by the model: at least
// one subtask, acyclicity, a unique root, every subtask reachable from the
// root, positive execution times and critical time, and MinShare in [0,1].
func (t *Task) Validate() error { return new(Validator).Validate(t) }

// Validate is Task.Validate on the validator's reused storage.
func (v *Validator) Validate(t *Task) error {
	n := len(t.Subtasks)
	if n == 0 {
		return fmt.Errorf("task %s: no subtasks", t.Name)
	}
	if !(t.CriticalMs > 0) { // also rejects NaN
		return fmt.Errorf("task %s: critical time must be positive, got %v", t.Name, t.CriticalMs)
	}
	if cap(v.ints) < 2*n {
		v.ints, v.seen = make([]int, 2*n), make([]bool, n)
	}
	if len(t.topo(v.ints[:2*n])) != n {
		return fmt.Errorf("task %s: precedence graph has a cycle", t.Name)
	}
	root, err := t.Root()
	if err != nil {
		return err
	}
	// Reachability from the root.
	seen, stack := v.seen[:n], append(v.ints[:0], root)
	clear(seen)
	seen[root] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range t.succ[u] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("task %s: subtask %s (index %d) unreachable from root", t.Name, t.Subtasks[i].Name, i)
		}
	}
	if v.names == nil {
		v.names = make(map[string]struct{}, n)
	}
	clear(v.names)
	for i, s := range t.Subtasks {
		if s.Name == "" {
			return fmt.Errorf("task %s: subtask %d has empty name", t.Name, i)
		}
		if _, dup := v.names[s.Name]; dup {
			return fmt.Errorf("task %s: duplicate subtask name %q", t.Name, s.Name)
		}
		v.names[s.Name] = struct{}{}
		if s.Resource == "" {
			return fmt.Errorf("task %s: subtask %s has no resource", t.Name, s.Name)
		}
		if s.ExecMs <= 0 {
			return fmt.Errorf("task %s: subtask %s has non-positive WCET %v", t.Name, s.Name, s.ExecMs)
		}
		if s.MinShare < 0 || s.MinShare > 1 {
			return fmt.Errorf("task %s: subtask %s MinShare %v outside [0,1]", t.Name, s.Name, s.MinShare)
		}
	}
	if err := t.Trigger.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", t.Name, err)
	}
	return nil
}

// ErrNoPaths indicates a task whose graph yields no root-to-leaf paths.
var ErrNoPaths = errors.New("task: no root-to-leaf paths")

// Paths enumerates every root-to-leaf path as a slice of subtask indices.
// Results are cached until the task is mutated. The caller must not modify
// the returned slices. Safe for concurrent callers as long as none mutates
// the task.
func (t *Task) Paths() ([][]int, error) {
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	if t.pathsOK {
		return t.paths, nil
	}
	root, err := t.Root()
	if err != nil {
		return nil, err
	}
	if _, err := t.TopoSort(); err != nil {
		return nil, err
	}
	var paths [][]int
	cur := make([]int, 0, len(t.Subtasks))
	var walk func(v int)
	walk = func(v int) {
		cur = append(cur, v)
		if len(t.succ[v]) == 0 {
			p := make([]int, len(cur))
			copy(p, cur)
			paths = append(paths, p)
		} else {
			for _, s := range t.succ[v] {
				walk(s)
			}
		}
		cur = cur[:len(cur)-1]
	}
	walk(root)
	if len(paths) == 0 {
		return nil, ErrNoPaths
	}
	t.paths = paths
	t.pathsOK = true
	return paths, nil
}

// PathCount returns, for each subtask index, the number of root-to-leaf
// paths that traverse it.
func (t *Task) PathCount() ([]int, error) {
	paths, err := t.Paths()
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(t.Subtasks))
	for _, p := range paths {
		for _, s := range p {
			counts[s]++
		}
	}
	return counts, nil
}

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

// SubtaskIndexByName returns the index of the named subtask, or -1.
func (t *Task) SubtaskIndexByName(name string) int {
	for i, s := range t.Subtasks {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the task (graph, subtasks and trigger).
func (t *Task) Clone() *Task {
	c := New(t.Name, t.CriticalMs)
	c.Trigger = t.Trigger
	c.Subtasks = append([]Subtask(nil), t.Subtasks...)
	c.succ = make([][]int, len(t.succ))
	c.pred = make([][]int, len(t.pred))
	for i := range t.succ {
		c.succ[i] = append([]int(nil), t.succ[i]...)
		c.pred[i] = append([]int(nil), t.pred[i]...)
	}
	return c
}

// Edges returns all precedence edges as (from, to) pairs in deterministic
// order.
func (t *Task) Edges() [][2]int {
	var edges [][2]int
	for from, succs := range t.succ {
		for _, to := range succs {
			edges = append(edges, [2]int{from, to})
		}
	}
	return edges
}

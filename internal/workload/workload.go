// Package workload defines complete LLA problem instances — tasks, resources
// and per-task utility curves — including the paper's evaluation workloads:
// the base three-task simulation workload of Section 5 (Table 1 / Figure 4),
// the four-task prototype workload of Section 6, replication-based scaling
// (Sections 5.3 and 5.4), and a seeded random workload generator.
package workload

import (
	"maps"
	"slices"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
)

// Workload is a full problem instance for the optimizer and simulator.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Tasks are the end-to-end tasks competing for the resources.
	Tasks []*task.Task
	// Resources are the schedulable resources, each with availability B_r
	// and scheduling lag l_r.
	Resources []share.Resource
	// Curves maps task name to its latency-to-benefit curve.
	Curves map[string]utility.Curve
}

// ResourceByID returns the resource with the given ID, or false.
func (w *Workload) ResourceByID(id string) (share.Resource, bool) {
	for _, r := range w.Resources {
		if r.ID == id {
			return r, true
		}
	}
	return share.Resource{}, false
}

// TaskByName returns the task with the given name, or nil.
func (w *Workload) TaskByName(name string) *task.Task {
	for _, t := range w.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Clone returns a deep copy of the workload, its tasks made by task.CloneN:
// they share backing arrays, so an append to one reallocates it. Curves are
// shared (they are immutable values); the map is the copy's own.
func (w *Workload) Clone() *Workload {
	return &Workload{
		Name:      w.Name,
		Tasks:     task.CloneN(w.Tasks, 1),
		Resources: slices.Clone(w.Resources),
		Curves:    maps.Clone(w.Curves),
	}
}

// TotalSubtasks counts subtasks across all tasks.
func (w *Workload) TotalSubtasks() int {
	n := 0
	for _, t := range w.Tasks {
		n += len(t.Subtasks)
	}
	return n
}

// SubtasksOn returns, for each resource ID, the (task index, subtask index)
// pairs of subtasks consuming it.
func (w *Workload) SubtasksOn() map[string][][2]int {
	m := make(map[string][][2]int, len(w.Resources))
	for ti, t := range w.Tasks {
		for si, s := range t.Subtasks {
			m[s.Resource] = append(m[s.Resource], [2]int{ti, si})
		}
	}
	return m
}

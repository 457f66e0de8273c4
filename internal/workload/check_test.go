package workload

import (
	"reflect"
	"testing"
)

// TestCheckResolvesEverySubtask: the proof's rows are the subtasks' resources
// by index, and its curves the tasks' curves.
func TestCheckResolvesEverySubtask(t *testing.T) {
	cfg := DefaultClusteredConfig(9)
	cfg.MixedCurves = true
	w, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := w.Check()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Workload() != w || ck.NumTasks() != len(w.Tasks) || ck.NumResources() != len(w.Resources) || ck.NumSubtasks() != w.TotalSubtasks() {
		t.Fatalf("proof of %d tasks, %d resources, %d subtasks; workload has %d, %d, %d",
			ck.NumTasks(), ck.NumResources(), ck.NumSubtasks(), len(w.Tasks), len(w.Resources), w.TotalSubtasks())
	}
	for ti, tk := range w.Tasks {
		row := ck.TaskResources(ti)
		if len(row) != len(tk.Subtasks) {
			t.Fatalf("task %d: %d resolved subtasks, want %d", ti, len(row), len(tk.Subtasks))
		}
		for si, s := range tk.Subtasks {
			if w.Resources[row[si]].ID != s.Resource {
				t.Fatalf("task %d subtask %d resolved to %s, want %s", ti, si, w.Resources[row[si]].ID, s.Resource)
			}
		}
		if !reflect.DeepEqual(ck.curves[ti], w.Curves[tk.Name]) {
			t.Fatalf("task %d: curve %v, want %v", ti, ck.curves[ti], w.Curves[tk.Name])
		}
	}
}

// TestProjectIsCheckOfSubWorkload: a projection is handed on unchecked, so it
// must be what checking its sub-workload from scratch returns — a workload
// that validates, holding exactly the resources its tasks use, in order.
func TestProjectIsCheckOfSubWorkload(t *testing.T) {
	w, err := Clustered(DefaultClusteredConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := w.Check()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range [][]int{{0}, {3, 4, 11}, {1, 7, 13, 19, 23}, {len(w.Tasks) - 1}} {
		sub := ck.Project("sub", idx)
		want, err := sub.Workload().Check()
		if err != nil {
			t.Fatalf("tasks %v: the projected workload does not validate: %v", idx, err)
		}
		want.resIdx = nil // a projection carries none
		if !reflect.DeepEqual(sub, want) {
			t.Fatalf("tasks %v: projection differs from a from-scratch Check of its workload", idx)
		}
		used := make(map[string]bool)
		for i, ti := range idx {
			if sub.Workload().Tasks[i] != w.Tasks[ti] {
				t.Fatalf("tasks %v: task %d is not shared with the full workload", idx, ti)
			}
			for _, s := range w.Tasks[ti].Subtasks {
				used[s.Resource] = true
			}
		}
		var ids []string
		for _, r := range w.Resources {
			if used[r.ID] {
				ids = append(ids, r.ID)
			}
		}
		var got []string
		for _, r := range sub.Workload().Resources {
			got = append(got, r.ID)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("tasks %v: projected resources %v, want %v", idx, got, ids)
		}
	}
}

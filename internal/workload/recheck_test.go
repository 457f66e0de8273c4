package workload

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lla/internal/task"
	"lla/internal/utility"
)

// serialRecheck is Checked.Recheck as it was before the chunked pass — every
// task matched, diffed, checked and name-claimed in one serial loop — kept as
// the reference the chunked pass is held to.
func serialRecheck(c *Checked, next *Workload, taskAt map[string]int) (ck *Checked, prev []int, dirty []bool, err error) {
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

	nt := len(next.Tasks)
	ck = &Checked{
		w: next, resIdx: resIdx,
		subOff: make([]int32, nt+1),
		res:    make([]int32, 0, next.TotalSubtasks()),
		curves: make([]utility.Curve, nt),
	}

	// checkTask runs every check whose verdict is task ti's alone — structure
	// and fields, resources against the ID table, curve — and appends its
	// resolved row. Per resource, lastTask is the last task seen on it
	// (1-based) and lastSub that task's subtask.
	var tv task.Validator
	lastTask, lastSub := make([]int32, len(next.Resources)), make([]int32, len(next.Resources))
	checkTask := func(ti int, t *task.Task, curve utility.Curve) error {
		if err := tv.Validate(t); err != nil {
			return err
		}
		for si, s := range t.Subtasks {
			ri, ok := resIdx[s.Resource]
			if !ok {
				return fmt.Errorf("task %s subtask %s references unknown resource %q", t.Name, s.Name, s.Resource)
			}
			if lastTask[ri] == int32(ti+1) {
				return fmt.Errorf("task %s has subtasks %s and %s on the same resource %q", t.Name, t.Subtasks[lastSub[ri]].Name, s.Name, s.Resource)
			}
			lastTask[ri], lastSub[ri] = int32(ti+1), int32(si)
			ck.res = append(ck.res, ri)
		}
		if curve == nil {
			return fmt.Errorf("task %s has no utility curve", t.Name)
		}
		if err := utility.ValidateCurve(curve, t.CriticalMs); err != nil {
			return fmt.Errorf("task %s: %w", t.Name, err)
		}
		return nil
	}

	prev, dirty = make([]int, nt), make([]bool, nt)
	claimed := make([]bool, len(old.Tasks))
	joined := make(map[string]struct{}, max(nt-len(old.Tasks), 0))
	for ti, t := range next.Tasks {
		oi := -1
		if ti < len(old.Tasks) && old.Tasks[ti].Name == t.Name {
			oi = ti
		} else if at, ok := taskAt[t.Name]; ok {
			oi = at
		}
		curve := next.Curves[t.Name]
		changed := oi < 0 || TaskChanged(old.Tasks[oi], t, c.curves[oi], curve)
		if !changed && sameIDs {
			ck.res = append(ck.res, c.TaskResources(oi)...)
		} else if err := checkTask(ti, t, curve); err != nil {
			return fail("%w", err)
		}
		// Names are unique in the predecessor, so two tasks of one name either
		// claim the same predecessor or both have none.
		if oi >= 0 {
			if claimed[oi] {
				return fail("duplicate task %q", t.Name)
			}
			claimed[oi] = true
		} else {
			if _, dup := joined[t.Name]; dup {
				return fail("duplicate task %q", t.Name)
			}
			joined[t.Name] = struct{}{}
		}
		ck.subOff[ti+1], ck.curves[ti] = int32(len(ck.res)), curve
		prev[ti], dirty[ti] = oi, changed
		for _, ri := range ck.TaskResources(ti) {
			dirty[ti] = dirty[ti] || resChanged[ri]
		}
	}
	return ck, prev, dirty, nil
}

// chunkedWorkload is a workload of 9 450 tasks, which Recheck splits into
// four chunks at the GOMAXPROCS of 4 it sets for the test; its chunk bounds
// are returned with it.
func chunkedWorkload(t *testing.T) (*Workload, []int) {
	t.Helper()
	procs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	cfg := DefaultClusteredConfig(5)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor = 3, 7, 450
	cfg.MixedCurves = true
	w, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nt := len(w.Tasks)
	chunks := max(min(runtime.GOMAXPROCS(0), nt/minChunk), 1)
	if chunks != 4 {
		t.Fatalf("%d tasks make %d chunks, want 4", nt, chunks)
	}
	bounds := make([]int, chunks+1)
	for k := range bounds {
		bounds[k] = k * nt / chunks
	}
	return w, bounds
}

// successor returns a copy of w that shares its tasks, as a churn event's
// successor shares the unchanged ones with its predecessor.
func successor(w *Workload) *Workload {
	return &Workload{Name: w.Name, Tasks: slices.Clone(w.Tasks), Resources: slices.Clone(w.Resources), Curves: maps.Clone(w.Curves)}
}

// own replaces task ti of a successor by a copy that may be modified.
func own(w *Workload, ti int) *task.Task {
	w.Tasks[ti] = w.Tasks[ti].Clone()
	return w.Tasks[ti]
}

// recheckEdit changes a successor; lo holds the chunk bounds.
type recheckEdit func(w *Workload, lo []int)

func renameTask(w *Workload, ti int, name string) {
	old := w.Tasks[ti].Name
	w.Curves[name] = w.Curves[old]
	own(w, ti).Name = name
	if name != old && !slices.ContainsFunc(w.Tasks, func(u *task.Task) bool { return u.Name == old }) {
		delete(w.Curves, old)
	}
}

// Per-task faults, each planted at task ti.
var (
	unknownResource = func(w *Workload, ti int) { own(w, ti).Subtasks[0].Resource = "nowhere" }
	sharedResource  = func(w *Workload, ti int) {
		s := own(w, ti).Subtasks
		s[len(s)-1].Resource = s[0].Resource
	}
	nonConcave = func(w *Workload, ti int) { w.Curves[w.Tasks[ti].Name] = utility.Quadratic{A: 1, B: -1} }
	noCurve    = func(w *Workload, ti int) { delete(w.Curves, w.Tasks[ti].Name) }
	nanCrit    = func(w *Workload, ti int) { own(w, ti).CriticalMs = math.NaN() }
	backEdge   = func(w *Workload, ti int) {
		t := own(w, ti)
		if err := t.AddEdge(len(t.Subtasks)-1, 0); err != nil {
			panic(err)
		}
	}
	perTask = []func(*Workload, int){unknownResource, sharedResource, nonConcave, noCurve, nanCrit, backEdge}
)

// at plants fault f at offset off of chunk k (negative: from its end).
func at(f func(*Workload, int), k, off int) recheckEdit {
	return func(w *Workload, lo []int) {
		if off < 0 {
			f(w, lo[k+1]+off)
		} else {
			f(w, lo[k]+off)
		}
	}
}

// dupOf renames the task at offset off of chunk k to the name of the task at
// offset srcOff of chunk srcK.
func dupOf(k, off, srcK, srcOff int) recheckEdit {
	return func(w *Workload, lo []int) { renameTask(w, lo[k]+off, w.Tasks[lo[srcK]+srcOff].Name) }
}

// TestRecheckMatchesSerialReference holds the chunked Recheck to the serial
// pass it replaced on a workload of four chunks: from scratch (Check) and
// against a checked predecessor, for faults planted in every chunk, at its
// edges and in pairs across chunks; duplicates before, after and beside a
// per-task fault; and valid successors with renamed, moved, removed, added,
// re-curved and re-provisioned tasks. Error strings, proofs, prev and dirty
// must all be identical.
func TestRecheckMatchesSerialReference(t *testing.T) {
	base, lo := chunkedWorkload(t)
	cases := map[string][]recheckEdit{
		"unchanged": nil,
		"renamed in every chunk": {
			func(w *Workload, lo []int) {
				for k := range 4 {
					renameTask(w, lo[k]+11, w.Tasks[lo[k]+11].Name+"~")
				}
			},
		},
		"moved across chunks": {
			func(w *Workload, lo []int) {
				for k := range 3 {
					i, j := lo[k]+5, lo[k+1]+40
					w.Tasks[i], w.Tasks[j] = w.Tasks[j], w.Tasks[i]
				}
			},
		},
		"removed from chunk 1, one added at the end": {
			func(w *Workload, lo []int) {
				twin := w.Tasks[3].Clone()
				twin.Name += "+"
				w.Curves[twin.Name] = w.Curves[w.Tasks[3].Name]
				delete(w.Curves, w.Tasks[lo[1]+2].Name)
				delete(w.Curves, w.Tasks[lo[1]+3].Name)
				w.Tasks = append(slices.Delete(w.Tasks, lo[1]+2, lo[1]+4), twin)
			},
		},
		"re-curved and re-provisioned": {
			func(w *Workload, lo []int) {
				w.Curves[w.Tasks[lo[2]+9].Name] = utility.Quadratic{A: 1e6, B: 1e-6}
				own(w, lo[3]-1).CriticalMs *= 0.9
				w.Resources[4].Availability *= 0.5
			},
		},
		"reordered resources": {
			func(w *Workload, lo []int) { slices.Reverse(w.Resources) },
		},
		"fault in chunk 1 and chunk 2":         {at(nonConcave, 2, 3), at(unknownResource, 1, 700)},
		"fault at a chunk's last task":         {at(sharedResource, 1, -1), at(noCurve, 3, 0)},
		"fault at a chunk's first task":        {at(backEdge, 2, 0), at(nanCrit, 3, 9)},
		"duplicate in chunk 0, fault in 2":     {dupOf(0, 30, 0, 10), at(nanCrit, 2, 1)},
		"fault in chunk 0, duplicate in 2":     {at(noCurve, 0, 50), dupOf(2, 30, 2, 10)},
		"duplicate first seen a chunk earlier": {dupOf(3, 100, 0, 4)},
		"duplicate and fault on one task":      {dupOf(2, 8, 1, 8), at(unknownResource, 2, 8)},
		"duplicate of a joined task": {
			func(w *Workload, lo []int) {
				renameTask(w, lo[0]+6, "fresh")
				renameTask(w, lo[2]+6, "fresh")
			},
		},
	}
	for i, f := range perTask {
		cases[fmt.Sprintf("per-task fault %d in chunk %d", i, i%4)] = []recheckEdit{at(f, i%4, 13*i)}
	}
	pred, err := base.Check()
	if err != nil {
		t.Fatal(err)
	}
	taskAt := make(map[string]int, len(base.Tasks))
	for ti, tk := range base.Tasks {
		taskAt[tk.Name] = ti
	}
	for name, edits := range cases {
		next := successor(base)
		for _, e := range edits {
			e(next, lo)
		}
		compareWithSerial(t, name+" (against the predecessor)", pred, next, taskAt)
		compareWithSerial(t, name+" (from scratch)", &Checked{w: new(Workload)}, next, nil)
	}

	// Seeded random mixes of the same edits, at random places.
	rng := rand.New(rand.NewSource(7))
	for trial := range 16 {
		next := successor(base)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k := rng.Intn(4)
			switch off := rng.Intn(lo[k+1] - lo[k]); rng.Intn(3) {
			case 0:
				at(perTask[rng.Intn(len(perTask))], k, off)(next, lo)
			case 1:
				dupOf(k, off, rng.Intn(4), rng.Intn(lo[1]))(next, lo)
			default:
				renameTask(next, lo[k]+off, fmt.Sprintf("r%d", trial))
			}
		}
		compareWithSerial(t, fmt.Sprintf("random trial %d", trial), pred, next, taskAt)
	}
}

func compareWithSerial(t *testing.T, name string, pred *Checked, next *Workload, taskAt map[string]int) {
	t.Helper()
	want, wantPrev, wantDirty, wantErr := serialRecheck(pred, next, taskAt)
	got, gotPrev, gotDirty, gotErr := pred.Recheck(next, taskAt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, the serial pass gives %v", name, gotErr, wantErr)
	}
	if len(pred.w.Tasks) == 0 { // every task joined: Recheck returns no vectors
		wantPrev, wantDirty = nil, nil
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotPrev, wantPrev) || !reflect.DeepEqual(gotDirty, wantDirty) {
		t.Fatalf("%s: proof, prev or dirty differs from the serial pass's", name)
	}
}

// TestRecheckRefusesHostileTasksInEveryChunk: a nil task, a Task literal and
// a nil or zero-value piecewise-linear curve are errors wherever they sit,
// also on a chunk's worker, and the one reported is the first in task order.
func TestRecheckRefusesHostileTasksInEveryChunk(t *testing.T) {
	base, lo := chunkedWorkload(t)
	hostile := []struct {
		name, want string
		plant      func(w *Workload, ti int)
	}{
		{"nil task", "is nil", func(w *Workload, ti int) { w.Tasks[ti] = nil }},
		{"task literal", "not added through AddSubtask", func(w *Workload, ti int) {
			old := w.Tasks[ti]
			w.Tasks[ti] = &task.Task{Name: old.Name, CriticalMs: old.CriticalMs, Subtasks: old.Subtasks, Trigger: old.Trigger}
		}},
		{"nil curve", "not built by NewPiecewiseLinear", func(w *Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = (*utility.PiecewiseLinear)(nil)
		}},
		{"zero curve", "not built by NewPiecewiseLinear", func(w *Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = new(utility.PiecewiseLinear)
		}},
	}
	pred, err := base.Check()
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hostile {
		for k := range 4 {
			// A hostile value at the workload's last task, later in task
			// order, must not be the one reported.
			next := successor(base)
			later := hostile[(i+1)%len(hostile)]
			later.plant(next, lo[4]-1)
			h.plant(next, lo[k]+7)
			for _, from := range []*Checked{pred, {w: new(Workload)}} {
				_, _, _, err := from.Recheck(next, nil)
				if err == nil || !strings.Contains(err.Error(), h.want) {
					t.Errorf("%s in chunk %d, %s later: error %v, want one naming %q", h.name, k, later.name, err, h.want)
				}
			}
		}
	}
}

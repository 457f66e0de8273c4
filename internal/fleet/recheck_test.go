package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lla/internal/core"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// dirtyOracle is ReplaceWorkload's diff as it was before the fused pass:
// tasks matched through a name map, the reflective task comparison, resources
// compared by ID through a map of the old table.
func dirtyOracle(old, next *workload.Workload) (prev []int, dirty []bool) {
	at := make(map[string]int, len(old.Tasks))
	for oi, t := range old.Tasks {
		at[t.Name] = oi
	}
	oldRes := make(map[string]share.Resource, len(old.Resources))
	for _, r := range old.Resources {
		oldRes[r.ID] = r
	}
	resChanged := make(map[string]bool, len(next.Resources))
	for _, r := range next.Resources {
		resChanged[r.ID] = r != oldRes[r.ID]
	}
	for _, t := range next.Tasks {
		oi, ok := at[t.Name]
		if !ok {
			prev, dirty = append(prev, -1), append(dirty, true)
			continue
		}
		d := taskChangedReflect(old.Tasks[oi], t, old.Curves[t.Name], next.Curves[t.Name])
		for _, s := range t.Subtasks {
			d = d || resChanged[s.Resource]
		}
		prev, dirty = append(prev, oi), append(dirty, d)
	}
	return prev, dirty
}

// recheckEdits are the random edits of the property test; each changes w in
// place. Some leave it valid, some do not, some depend on where they land.
var recheckEdits = []struct {
	name string
	edit func(rng *rand.Rand, w *workload.Workload)
}{
	{"scale a critical time", func(rng *rand.Rand, w *workload.Workload) {
		w.Tasks[rng.Intn(len(w.Tasks))].CriticalMs *= 0.9
	}},
	{"rename a task", func(rng *rand.Rand, w *workload.Workload) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		curve := w.Curves[t.Name]
		delete(w.Curves, t.Name)
		t.Name += "~"
		w.Curves[t.Name] = curve
	}},
	{"non-concave curve", func(rng *rand.Rand, w *workload.Workload) {
		w.Curves[w.Tasks[rng.Intn(len(w.Tasks))].Name] = utility.Quadratic{A: 1, B: -1}
	}},
	{"another valid curve", func(rng *rand.Rand, w *workload.Workload) {
		w.Curves[w.Tasks[rng.Intn(len(w.Tasks))].Name] = utility.Quadratic{A: 1e6, B: 1e-6}
	}},
	{"subtask on an unknown resource", func(rng *rand.Rand, w *workload.Workload) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		t.Subtasks[rng.Intn(len(t.Subtasks))].Resource = "nowhere"
	}},
	{"subtask on a resource its task already uses", func(rng *rand.Rand, w *workload.Workload) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		t.Subtasks[len(t.Subtasks)-1].Resource = t.Subtasks[0].Resource
	}},
	{"subtask on another known resource", func(rng *rand.Rand, w *workload.Workload) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		t.Subtasks[rng.Intn(len(t.Subtasks))].Resource = w.Resources[rng.Intn(len(w.Resources))].ID
	}},
	{"back edge", func(rng *rand.Rand, w *workload.Workload) {
		t := w.Tasks[rng.Intn(len(w.Tasks))]
		_ = t.AddEdge(len(t.Subtasks)-1, 0) // refused on a one-subtask task: the edit is then a no-op
	}},
	{"duplicate a name", func(rng *rand.Rand, w *workload.Workload) {
		// Against an untouched task or, after a rename, a renamed one; the
		// duplicate may come before or after the task it copies.
		w.Tasks[rng.Intn(len(w.Tasks))].Name = w.Tasks[rng.Intn(len(w.Tasks))].Name
	}},
	{"drop a curve", func(rng *rand.Rand, w *workload.Workload) {
		delete(w.Curves, w.Tasks[rng.Intn(len(w.Tasks))].Name)
	}},
	{"halve an availability", func(rng *rand.Rand, w *workload.Workload) {
		w.Resources[rng.Intn(len(w.Resources))].Availability *= 0.5
	}},
	{"zero an availability", func(rng *rand.Rand, w *workload.Workload) {
		w.Resources[rng.Intn(len(w.Resources))].Availability = 0
	}},
	{"NaN availability", func(rng *rand.Rand, w *workload.Workload) {
		w.Resources[rng.Intn(len(w.Resources))].Availability = math.NaN()
	}},
	{"delete a resource", func(rng *rand.Rand, w *workload.Workload) {
		i := rng.Intn(len(w.Resources))
		w.Resources = slices.Delete(w.Resources, i, i+1)
	}},
	{"duplicate a resource", func(rng *rand.Rand, w *workload.Workload) {
		w.Resources = append(w.Resources, w.Resources[rng.Intn(len(w.Resources))])
	}},
	{"add an unused resource", func(rng *rand.Rand, w *workload.Workload) {
		r := share.Resource{ID: fmt.Sprintf("spare%d", rng.Int63()), Kind: share.CPU, Availability: 1}
		w.Resources = slices.Insert(w.Resources, rng.Intn(len(w.Resources)+1), r)
	}},
	{"reorder the resources", func(rng *rand.Rand, w *workload.Workload) {
		rng.Shuffle(len(w.Resources), func(i, j int) { w.Resources[i], w.Resources[j] = w.Resources[j], w.Resources[i] })
	}},
	{"append a task", func(rng *rand.Rand, w *workload.Workload) {
		src := w.Tasks[rng.Intn(len(w.Tasks))]
		twin := src.Clone()
		twin.Name = fmt.Sprintf("%s+%d", src.Name, rng.Int63())
		w.Tasks = append(w.Tasks, twin)
		w.Curves[twin.Name] = w.Curves[src.Name]
	}},
	{"remove a task", func(rng *rand.Rand, w *workload.Workload) {
		if len(w.Tasks) > 1 { // so that tasks after it change position
			i := rng.Intn(len(w.Tasks))
			delete(w.Curves, w.Tasks[i].Name)
			w.Tasks = slices.Delete(w.Tasks, i, i+1)
		}
	}},
}

// TestRecheckMatchesValidateOracle holds the fused pass of ReplaceWorkload to
// what it replaced. Over seeded clustered chain and DAG workloads it applies
// zero to three random edits to a clone of the fleet's workload and requires
// that Recheck (a) errs exactly when full validation errs, with the same
// message when a single edit was made, (b) reports the dirty set and the
// predecessors of the old name-map, reflect and resource-map diff, and (c)
// resolves what a from-scratch Check resolves. Valid successors are committed
// now and then, so later trials inherit from inherited rows — also from rows
// resolved through a reordered resource table.
func TestRecheckMatchesValidateOracle(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for _, chain := range []bool{true, false} {
		f, err := New(oracleWorkload(t, chain, 0.15), Config{Shards: 4, Seed: 3})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer f.Close()
		rng := rand.New(rand.NewSource(11))
		rejected, committed := 0, 0
		for trial := 0; trial < trials; trial++ {
			old := f.ck.Workload()
			next := old.Clone()
			var applied []string
			for n := rng.Intn(4); n > 0; n-- {
				e := recheckEdits[rng.Intn(len(recheckEdits))]
				e.edit(rng, next)
				applied = append(applied, e.name)
			}
			got, gotPrev, gotDirty, gotErr := f.ck.Recheck(next, f.taskAt)
			want, wantErr := next.Check()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("chain=%v trial %d %q: Recheck error %v, Validate error %v", chain, trial, applied, gotErr, wantErr)
			}
			if wantErr != nil {
				if len(applied) == 1 && gotErr.Error() != wantErr.Error() {
					t.Fatalf("chain=%v trial %d %q: Recheck says %q, Validate says %q", chain, trial, applied, gotErr, wantErr)
				}
				rejected++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chain=%v trial %d %q: Recheck's proof differs from a from-scratch Check's", chain, trial, applied)
			}
			sameIDs := slices.EqualFunc(old.Resources, next.Resources, func(a, b share.Resource) bool { return a.ID == b.ID })
			if got.SharesIDs(f.ck) != sameIDs {
				t.Fatalf("chain=%v trial %d %q: SharesIDs %v, resource IDs positionally equal %v", chain, trial, applied, !sameIDs, sameIDs)
			}
			prev, dirty := dirtyOracle(old, next)
			if !slices.Equal(gotPrev, prev) || !slices.Equal(gotDirty, dirty) {
				t.Fatalf("chain=%v trial %d %q: diff differs from the oracle's\n got prev %v dirty %v\nwant prev %v dirty %v",
					chain, trial, applied, gotPrev, gotDirty, prev, dirty)
			}
			if rng.Intn(3) == 0 {
				if _, err := f.ReplaceWorkload(next); err != nil {
					t.Fatalf("chain=%v trial %d %q: ReplaceWorkload: %v", chain, trial, applied, err)
				}
				if !reflect.DeepEqual(f.ck, want) {
					t.Fatalf("chain=%v trial %d %q: the fleet's proof after the commit differs from a from-scratch Check's", chain, trial, applied)
				}
				if !reflect.DeepEqual(f.part.inc, newShardIncidence(f.ck, f.part.TaskShard, f.part.Shards)) {
					t.Fatalf("chain=%v trial %d %q: the partition's incidence, moved by the delta, differs from a recount", chain, trial, applied)
				}
				lists := make([][]int, f.part.Shards)
				for ti, s := range f.part.TaskShard {
					lists[s] = append(lists[s], ti)
				}
				for s, list := range lists {
					if !slices.Equal(f.part.ShardTasks[s], list) {
						t.Fatalf("chain=%v trial %d %q: shard %d lists tasks %v, its placement %v", chain, trial, applied, s, f.part.ShardTasks[s], list)
					}
				}
				for name, ti := range f.taskAt {
					if ti >= len(next.Tasks) || next.Tasks[ti].Name != name {
						t.Fatalf("chain=%v trial %d %q: name index maps %q to %d", chain, trial, applied, name, ti)
					}
				}
				if len(f.taskAt) != len(next.Tasks) {
					t.Fatalf("chain=%v trial %d %q: name index holds %d names for %d tasks", chain, trial, applied, len(f.taskAt), len(next.Tasks))
				}
				committed++
			}
		}
		if rejected < trials/10 || committed < trials/10 {
			t.Fatalf("chain=%v: %d rejected and %d committed of %d trials: the edits no longer cover both sides", chain, rejected, committed, trials)
		}
	}
}

// TestFleetReplaceMatchesCompileOracle: after a ReplaceWorkload of each churn
// kind the benchmark draws, every shard — rebuilt from the proof or kept —
// holds exactly the problem core.Compile builds from a deep copy of its
// sub-workload, which is also the problem a cold fleet on the same partition
// holds.
func TestFleetReplaceMatchesCompileOracle(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			cur := oracleWorkload(t, tc.chain, tc.cross)
			cfg := Config{Shards: 4, Seed: 3}
			mode := cfg.Engine.WithDefaults().WeightMode
			f, err := New(cur, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer f.Close()
			var halved []string
			for _, s := range cur.Tasks[20].Subtasks {
				halved = append(halved, s.Resource)
			}
			scale := func(by float64) func(*workload.Workload) {
				return func(w *workload.Workload) {
					for ri := range w.Resources {
						if slices.Contains(halved, w.Resources[ri].ID) {
							w.Resources[ri].Availability *= by
						}
					}
				}
			}
			for _, ev := range []struct {
				kind string
				edit func(w *workload.Workload)
			}{
				{"scale-critical", func(w *workload.Workload) {
					for _, t := range w.Tasks[7:12] {
						t.CriticalMs *= 0.9
					}
				}},
				{"replace-tasks", func(w *workload.Workload) {
					for _, t := range w.Tasks[7:12] {
						curve := w.Curves[t.Name]
						delete(w.Curves, t.Name)
						t.Name += "~e1"
						w.Curves[t.Name] = curve
					}
				}},
				{"capacity halve", scale(0.5)},
				{"capacity restore", scale(2)},
			} {
				next := cur.Clone()
				ev.edit(next)
				st, err := f.ReplaceWorkload(next)
				if err != nil || st.Full || st.Rebuilt == 0 || st.Reused == 0 {
					t.Fatalf("%s: %+v, err %v; want an incremental rebuild of some shards", ev.kind, st, err)
				}
				cold, err := New(next.Clone(), cfg)
				if err != nil {
					t.Fatalf("%s: cold New: %v", ev.kind, err)
				}
				if !reflect.DeepEqual(f.Partition(), cold.Partition()) {
					t.Fatalf("%s: partition differs from the cold fleet's", ev.kind)
				}
				for s := 0; s < f.Shards(); s++ {
					sub := cloningSubWorkload(next, fmt.Sprintf("%s/shard%d", next.Name, s), f.Partition().ShardTasks[s])
					ref, err := core.Compile(sub, mode)
					if err != nil {
						t.Fatalf("%s shard %d: Compile: %v", ev.kind, s, err)
					}
					if !sameProblem(f.Engine(s).Problem(), ref) {
						t.Fatalf("%s shard %d: problem differs from the cloning build's", ev.kind, s)
					}
					if !sameProblem(f.Engine(s).Problem(), cold.Engine(s).Problem()) {
						t.Fatalf("%s shard %d: problem differs from the cold fleet's", ev.kind, s)
					}
				}
				cold.Close()
				cur = next
			}
		})
	}
}

// hostile are the values every numeric field is attacked with; of these a
// field may accept only zero or a negative, and only where its row says so.
var hostile = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}

// TestNumericFieldsRejectHostileValues is one accept/reject table over every
// numeric field of a workload and every numeric engine setter: the accepted
// value goes through Validate, fleet.New and ReplaceWorkload (or the setter),
// and NaN, both infinities, zero and a negative are each an error from all of
// them — never a panic, never a fleet whose state moved — except where zero
// or a negative is a legitimate value of the field.
func TestNumericFieldsRejectHostileValues(t *testing.T) {
	base := clusteredWorkload(t, 17, 0.25)
	cfg := Config{Shards: 4, Seed: 1}
	f, err := New(base, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	eng, err := core.NewEngine(base.Clone(), core.Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	tk, sub, res := base.Tasks[3].Name, base.Tasks[3].Subtasks[1].Name, base.Resources[2].ID
	bursty := func(w *workload.Workload) *task.Trigger {
		w.Tasks[3].Trigger = task.Bursty(10, 5, 5)
		return &w.Tasks[3].Trigger
	}

	for _, field := range []struct {
		name            string
		accept          float64
		zeroOK, minusOK bool
		// Exactly one of the two: set writes the field of a workload, call
		// hands the value to an engine setter.
		set  func(w *workload.Workload, v float64)
		call func(v float64) error
	}{
		{name: "task critical time", accept: 1e6, set: func(w *workload.Workload, v float64) { w.Tasks[3].CriticalMs = v }},
		{name: "subtask WCET", accept: 0.5, set: func(w *workload.Workload, v float64) { w.Tasks[3].Subtasks[1].ExecMs = v }},
		{name: "subtask minimum share", accept: 0.001, zeroOK: true, set: func(w *workload.Workload, v float64) { w.Tasks[3].Subtasks[1].MinShare = v }},
		{name: "resource availability", accept: 0.5, set: func(w *workload.Workload, v float64) { w.Resources[2].Availability = v }},
		{name: "resource lag", accept: 2, zeroOK: true, set: func(w *workload.Workload, v float64) { w.Resources[2].LagMs = v }},
		{name: "periodic trigger period", accept: 20, set: func(w *workload.Workload, v float64) { w.Tasks[3].Trigger = task.Periodic(v) }},
		{name: "poisson trigger mean", accept: 20, set: func(w *workload.Workload, v float64) { w.Tasks[3].Trigger = task.Poisson(v) }},
		{name: "bursty trigger period", accept: 20, set: func(w *workload.Workload, v float64) { bursty(w).PeriodMs = v }},
		{name: "bursty trigger on-phase", accept: 20, set: func(w *workload.Workload, v float64) { bursty(w).OnMs = v }},
		{name: "bursty trigger off-phase", accept: 20, zeroOK: true, set: func(w *workload.Workload, v float64) { bursty(w).OffMs = v }},
		{name: "SetAvailability", accept: 0.5, call: func(v float64) error { return eng.SetAvailability(res, v) }},
		{name: "SetMinShare", accept: 0.001, zeroOK: true, call: func(v float64) error { return eng.SetMinShare(tk, sub, v) }},
		{name: "SetErrorMs", accept: 0.25, zeroOK: true, minusOK: true, call: func(v float64) error { return eng.SetErrorMs(tk, sub, v) }},
	} {
		for _, v := range append([]float64{field.accept}, hostile...) {
			ok := v == field.accept || v == 0 && field.zeroOK || v == -1 && field.minusOK
			var errs map[string]error
			if field.call != nil {
				errs = map[string]error{field.name: field.call(v)}
			} else {
				w := base.Clone()
				field.set(w, v)
				errs = map[string]error{"Validate": w.Validate()}
				nf, err := New(w, cfg)
				if errs["fleet.New"] = err; err == nil {
					nf.Close()
				}
				// An accepted successor is committed, so later rows are also
				// diffed against workloads other than base.
				ck, part, engines := f.ck, f.part, shardEngines(f)
				_, err = f.ReplaceWorkload(w)
				if errs["ReplaceWorkload"] = err; err != nil && (f.ck != ck || f.part != part || !slices.Equal(shardEngines(f), engines)) {
					t.Fatalf("%s = %v: a refused workload changed fleet state", field.name, v)
				}
			}
			for through, err := range errs {
				if (err == nil) != ok {
					t.Errorf("%s = %v through %s: error %v, want accepted=%v", field.name, v, through, err, ok)
				}
			}
		}
	}
	if _, err := f.ReplaceWorkload(base.Clone()); err != nil {
		t.Fatalf("the fleet no longer takes a valid workload: %v", err)
	}
}

// TestHostileTasksAndCurvesRejected is the reject table for values that used
// to panic inside validation: a nil task, a Task literal (its precedence graph
// unset) under a new and under a surviving name, and a nil or zero-value
// piecewise-linear curve. Each is an error from Validate, core.NewEngine,
// fleet.New and ReplaceWorkload, the refused fleet's state does not move, and
// with two planted the first in task order is the one reported.
func TestHostileTasksAndCurvesRejected(t *testing.T) {
	base := clusteredWorkload(t, 17, 0.25)
	cfg := Config{Shards: 4, Seed: 1}
	f, err := New(base.Clone(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	// literal replaces task ti by a Task literal of its fields, named rename
	// if that is set.
	literal := func(rename string) func(w *workload.Workload, ti int) {
		return func(w *workload.Workload, ti int) {
			old, name := w.Tasks[ti], rename
			if name == "" {
				name = old.Name
			}
			w.Tasks[ti] = &task.Task{Name: name, CriticalMs: old.CriticalMs, Subtasks: old.Subtasks, Trigger: old.Trigger}
			w.Curves[name] = w.Curves[old.Name]
		}
	}
	rows := []struct {
		name, want string
		plant      func(w *workload.Workload, ti int)
	}{
		{"nil task", "is nil", func(w *workload.Workload, ti int) { w.Tasks[ti] = nil }},
		{"task literal, surviving name", "not added through AddSubtask", literal("")},
		{"task literal, new name", "not added through AddSubtask", literal("literal")},
		{"nil piecewise-linear curve", "not built by NewPiecewiseLinear", func(w *workload.Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = (*utility.PiecewiseLinear)(nil)
		}},
		{"zero-value piecewise-linear curve", "not built by NewPiecewiseLinear", func(w *workload.Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = new(utility.PiecewiseLinear)
		}},
		{"zero-value exp-penalty curve (NaN slope)", "not finite", func(w *workload.Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = utility.ExpPenalty{}
		}},
		{"exp-penalty curve with zero Tau (-Inf slope)", "not finite", func(w *workload.Workload, ti int) {
			w.Curves[w.Tasks[ti].Name] = utility.ExpPenalty{A: 1, B: 1, Tau: 0}
		}},
	}
	for i, row := range rows {
		w := base.Clone()
		// The next row's value, planted later in task order, is not reported.
		rows[(i+1)%len(rows)].plant(w, len(w.Tasks)-1)
		row.plant(w, 5)
		errs := map[string]error{"Validate": w.Validate()}
		eng, err := core.NewEngine(w, core.Config{})
		if errs["core.NewEngine"] = err; err == nil {
			eng.Close()
		}
		nf, err := New(w, cfg)
		if errs["fleet.New"] = err; err == nil {
			nf.Close()
		}
		ck, part, engines := f.ck, f.part, shardEngines(f)
		_, errs["ReplaceWorkload"] = f.ReplaceWorkload(w)
		if f.ck != ck || f.part != part || !slices.Equal(shardEngines(f), engines) {
			t.Fatalf("%s: a refused workload changed fleet state", row.name)
		}
		for through, err := range errs {
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s through %s: error %v, want one naming %q", row.name, through, err, row.want)
			}
		}
	}
	if _, err := f.ReplaceWorkload(base.Clone()); err != nil {
		t.Fatalf("the fleet no longer takes a valid workload: %v", err)
	}
}

func shardEngines(f *Fleet) []*core.Engine {
	out := make([]*core.Engine, f.Shards())
	for s := range out {
		out[s] = f.Engine(s)
	}
	return out
}

// TestMutatedClusteredWorkloadRefused: Clustered leaves the validation of its
// output to whoever consumes it, so a generated workload changed afterwards is
// refused by fleet.New and core.NewEngine alike.
func TestMutatedClusteredWorkloadRefused(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mut        func(w *workload.Workload)
	}{
		{"NaN WCET", "WCET", func(w *workload.Workload) { w.Tasks[7].Subtasks[1].ExecMs = math.NaN() }},
		{"duplicate task name", "duplicate task", func(w *workload.Workload) { w.Tasks[9].Name = w.Tasks[2].Name }},
		{"unknown resource", "unknown resource", func(w *workload.Workload) { w.Tasks[4].Subtasks[0].Resource = "nowhere" }},
	} {
		w, err := workload.Clustered(workload.DefaultClusteredConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(w, Config{Shards: 2})
		if err != nil {
			t.Fatalf("the unmutated workload is refused: %v", err)
		}
		f.Close()
		tc.mut(w)
		if _, err := New(w, Config{Shards: 2}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: fleet.New = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := core.NewEngine(w, core.Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: core.NewEngine = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

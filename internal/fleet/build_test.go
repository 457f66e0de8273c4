package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// cloningSubWorkload is subWorkload as it was before shards shared their
// tasks with the fleet's workload: every task deep-copied, resources found
// through a name set. The oracle the shared-pointer build is held to.
func cloningSubWorkload(w *workload.Workload, name string, taskIdx []int) *workload.Workload {
	sub := &workload.Workload{
		Name:   name,
		Curves: make(map[string]utility.Curve, len(taskIdx)),
	}
	used := make(map[string]bool)
	for _, ti := range taskIdx {
		t := w.Tasks[ti].Clone()
		sub.Tasks = append(sub.Tasks, t)
		sub.Curves[t.Name] = w.Curves[t.Name]
		for _, s := range t.Subtasks {
			used[s.Resource] = true
		}
	}
	for _, r := range w.Resources {
		if used[r.ID] {
			sub.Resources = append(sub.Resources, r)
		}
	}
	return sub
}

// sameProblem reports whether two compiled problems hold equal arrays and
// resolve every task name to one index. Resolving builds both problems' name
// indexes, which are built on first use, so the comparison never turns on
// whether one of them had been asked before.
func sameProblem(got, want *core.Problem) bool {
	for _, t := range got.Workload().Tasks {
		gi, gok := got.TaskIndex(t.Name)
		if wi, wok := want.TaskIndex(t.Name); gi != wi || gok != wok {
			return false
		}
	}
	return reflect.DeepEqual(got, want)
}

// oracleCases are the seeded workloads of the build-equivalence tests.
var oracleCases = []struct {
	name  string
	chain bool
	cross float64
	// golden is the FNV-1a digest of a full Run's RecordHashes matrix and
	// boundary-residual series. Recorded at the commit before fleet.New
	// stopped compiling the whole workload, and re-recorded once, when the
	// trajectory itself changed on purpose: the aggregator takes Newton steps
	// (coupled: 37 and 42 rounds became 6) and a shard whose sweep ended on the KKT
	// window is skipped, not polished by two more iterations, while its pins
	// stand (separable: the second of the two rounds). Re-recorded a second
	// time when the shard engines' default solver became diagonal Newton,
	// whose curvature is folded into the demand reduction and whose steps
	// carry a sign-flip safeguard, which the aggregator's Newton steps share
	// (rounds unchanged: 2, 6, 2, 6). Re-recorded a third time when Newton
	// began treating an excess within the demand reduction's rounding as zero,
	// so a shard at its certified point stops moving bit for bit (rounds
	// unchanged again, and asserted below). Re-recorded a fourth time when New
	// began seeding every resource price with the relaxed dual optimum
	// instead of core.InitialMu (rounds 2, 6, 2, 6 became 2, 2, 2, 2). What
	// the runs converge to is held by the property suites, not by these
	// recordings.
	golden uint64
	// rounds is the aggregator round count of the full Run.
	rounds int
}{
	{"chain/separable", true, 0, 0xf46c1a21a3e80258, 2},
	{"chain/coupled", true, 0.15, 0xf445b7a73a97f114, 2},
	{"dag/separable", false, 0, 0xd2403d2447ae816c, 2},
	{"dag/coupled", false, 0.15, 0x2256c1f057d9cd02, 2},
}

func oracleWorkload(t *testing.T, chain bool, cross float64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultClusteredConfig(31)
	cfg.ChainOnly, cfg.CrossFraction, cfg.ReplicateFactor, cfg.SlackFactor = chain, cross, 2, 20
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	return w
}

// runDigest folds a run's determinism certificate into one number.
func runDigest(res Result) uint64 {
	h := fnv.New64a()
	for r, row := range res.ShardHashes {
		fmt.Fprintf(h, "%d|%x|%x\n", r, row, math.Float64bits(res.BoundaryResiduals[r]))
	}
	return h.Sum64()
}

// TestFleetBuildMatchesCompileOracle: building shards from shared task
// pointers, with the partition computed from the workload rather than from a
// compiled problem, yields the partition of the compiled route and, per
// shard, exactly the problem the old cloning build compiled — and a full run
// reproduces the state hashes recorded before the change.
func TestFleetBuildMatchesCompileOracle(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			w := oracleWorkload(t, tc.chain, tc.cross)
			cfg := Config{Shards: 4, Seed: 3, RecordHashes: true}
			f, err := New(w, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer f.Close()

			mode := cfg.Engine.WithDefaults().WeightMode
			p, err := core.Compile(w, mode)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			inc := core.NewIncidence(p)
			ck, err := w.Check()
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			for ti := range w.Tasks {
				if !slices.Equal(ck.TaskResources(ti), inc.TaskResources(ti)) {
					t.Fatalf("task %d: the checked workload's resources differ from the compiled problem's incidence", ti)
				}
			}
			want, err := NewPartition(&inc, PartitionConfig{Shards: cfg.Shards, Seed: cfg.Seed})
			if err != nil {
				t.Fatalf("NewPartition: %v", err)
			}
			if !reflect.DeepEqual(f.Partition(), want) {
				t.Fatalf("partition differs from the compiled route:\n got %+v\nwant %+v", f.Partition(), want)
			}
			for s := 0; s < f.Shards(); s++ {
				sub := cloningSubWorkload(w, fmt.Sprintf("%s/shard%d", w.Name, s), want.ShardTasks[s])
				ref, err := core.Compile(sub, mode)
				if err != nil {
					t.Fatalf("shard %d: Compile: %v", s, err)
				}
				if !sameProblem(f.Engine(s).Problem(), ref) {
					t.Fatalf("shard %d: compiled problem differs from the cloning build's", s)
				}
			}

			res, err := f.Run()
			if err != nil || !res.Converged {
				t.Fatalf("Run: converged=%v err=%v", res.Converged, err)
			}
			if res.Rounds != tc.rounds {
				t.Errorf("converged after %d rounds, want %d", res.Rounds, tc.rounds)
			}
			if got := runDigest(res); got != tc.golden {
				t.Errorf("run digest %#x after %d rounds, want %#x", got, res.Rounds, tc.golden)
			}
		})
	}
}

// taskChangedReflect is taskChanged as it was: the oracle.
func taskChangedReflect(a, b *task.Task, ca, cb utility.Curve) bool {
	return a.CriticalMs != b.CriticalMs ||
		!reflect.DeepEqual(a.Trigger, b.Trigger) ||
		!reflect.DeepEqual(a.Subtasks, b.Subtasks) ||
		!reflect.DeepEqual(a.Edges(), b.Edges()) ||
		!reflect.DeepEqual(ca, cb)
}

// sliceCurve is a value-typed curve that == cannot compare.
type sliceCurve struct{ ks []float64 }

func (c sliceCurve) Value(x float64) float64 { return -c.ks[0] * x }
func (c sliceCurve) Slope(float64) float64   { return -c.ks[0] }

// TestTaskChangedMatchesReflectOracle: the bulk comparison returns the
// reflective one's verdict for every kind of single-field edit — each subtask
// field, one edge added, removed or retargeted, the critical time, the
// trigger, the curve — and for unchanged pairs. A false "changed" only costs
// a rebuild; a missed change is a bug.
func TestTaskChangedMatchesReflectOracle(t *testing.T) {
	w := oracleWorkload(t, false, 0.15)
	pw := func(ys ...float64) utility.Curve {
		c, err := utility.NewPiecewiseLinear([]float64{0, 10, 20}, ys)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	lin := utility.Linear{K: 2, CMs: 100}
	mutations := []struct {
		name   string
		mutate func(b *task.Task, cb *utility.Curve)
		want   bool
	}{
		{"none", func(*task.Task, *utility.Curve) {}, false},
		{"critical time", func(b *task.Task, _ *utility.Curve) { b.CriticalMs *= 0.9 }, true},
		{"trigger period", func(b *task.Task, _ *utility.Curve) { b.Trigger.PeriodMs++ }, true},
		{"trigger kind", func(b *task.Task, _ *utility.Curve) { b.Trigger.Kind = task.TriggerPoisson }, true},
		{"subtask name", func(b *task.Task, _ *utility.Curve) { b.Subtasks[1].Name += "'" }, true},
		{"subtask resource", func(b *task.Task, _ *utility.Curve) { b.Subtasks[1].Resource += "'" }, true},
		{"subtask exec", func(b *task.Task, _ *utility.Curve) { b.Subtasks[0].ExecMs *= 2 }, true},
		{"subtask min share", func(b *task.Task, _ *utility.Curve) { b.Subtasks[0].MinShare = 0.01 }, true},
		{"subtask added", func(b *task.Task, _ *utility.Curve) {
			b.AddSubtask(task.Subtask{Name: "extra", Resource: "r", ExecMs: 1})
		}, true},
		{"edge added", func(b *task.Task, _ *utility.Curve) { addFreeEdge(t, b) }, true},
		{"curve value", func(_ *task.Task, cb *utility.Curve) { *cb = utility.Linear{K: 3, CMs: 100} }, true},
		{"curve type", func(_ *task.Task, cb *utility.Curve) { *cb = utility.NegLatency{} }, true},
		{"curve to pointer type", func(_ *task.Task, cb *utility.Curve) { *cb = pw(30, 20, 0) }, true},
	}
	for _, m := range mutations {
		for ti, a := range w.Tasks {
			b := a.Clone()
			ca, cb := utility.Curve(lin), utility.Curve(lin)
			m.mutate(b, &cb)
			got, oracle := workload.TaskChanged(a, b, ca, cb), taskChangedReflect(a, b, ca, cb)
			if got != oracle || got != m.want {
				t.Fatalf("%s on task %d: taskChanged=%v, reflect oracle=%v, want %v", m.name, ti, got, oracle, m.want)
			}
		}
	}

	// Edits no task method makes in place: one edge removed, one retargeted,
	// and a row's first edge moved to the end of the row before, which keeps
	// every successor entry and moves only a row end. Each task is rebuilt
	// through New, AddSubtask and AddEdge, which unedited must compare
	// unchanged.
	rebuild := func(a *task.Task, edges [][2]int) *task.Task {
		b := task.New(a.Name, a.CriticalMs)
		b.Trigger = a.Trigger
		for _, st := range a.Subtasks {
			b.AddSubtask(st)
		}
		for _, e := range edges {
			b.MustEdge(e[0], e[1])
		}
		return b
	}
	removed, retargeted, rowMoves := 0, 0, 0
	for ti, a := range w.Tasks {
		edges := a.Edges()
		edits := map[string][][2]int{"unedited": edges}
		if len(edges) > 0 {
			edits["edge removed"] = edges[:len(edges)-1]
			removed++
		}
		for k, e := range edges {
			for to := range a.Subtasks {
				if moved := [2]int{e[0], to}; to != e[0] && !slices.Contains(edges, moved) && edits["edge retargeted"] == nil {
					edits["edge retargeted"] = slices.Concat(edges[:k], [][2]int{moved}, edges[k+1:])
					retargeted++
				}
			}
			if moved := [2]int{edges[max(k-1, 0)][0], e[1]}; moved[0] < e[0] && moved[0] != e[1] && !slices.Contains(edges, moved) {
				edits["edge moved to the row before"] = slices.Concat(edges[:k], [][2]int{moved}, edges[k+1:])
				rowMoves++
			}
		}
		for name, edited := range edits {
			b := rebuild(a, edited)
			got, oracle := workload.TaskChanged(a, b, lin, lin), taskChangedReflect(a, b, lin, lin)
			if got != oracle || got != (name != "unedited") {
				t.Fatalf("%s on task %d: taskChanged=%v, reflect oracle=%v", name, ti, got, oracle)
			}
		}
	}
	if removed == 0 || retargeted == 0 || rowMoves == 0 {
		t.Fatalf("edges removed %d, retargeted %d, moved a row %d: a graph edit was not exercised", removed, retargeted, rowMoves)
	}

	// Curves compared by what they hold: pointer types through the pointer,
	// value types == cannot compare through reflection, NaN never equal.
	a := w.Tasks[0]
	shared := pw(30, 20, 0)
	for _, tc := range []struct {
		name   string
		ca, cb utility.Curve
		want   bool
	}{
		{"same pointer", shared, shared, false},
		{"equal pointees", pw(30, 20, 0), pw(30, 20, 0), false},
		{"different pointees", pw(30, 20, 0), pw(30, 25, 0), true},
		{"pointer vs value", shared, lin, true},
		{"uncomparable equal", sliceCurve{[]float64{1}}, sliceCurve{[]float64{1}}, false},
		{"uncomparable different", sliceCurve{[]float64{1}}, sliceCurve{[]float64{2}}, true},
		{"NaN field", utility.Linear{K: math.NaN(), CMs: 1}, utility.Linear{K: math.NaN(), CMs: 1}, true},
	} {
		got, oracle := workload.TaskChanged(a, a.Clone(), tc.ca, tc.cb), taskChangedReflect(a, a.Clone(), tc.ca, tc.cb)
		if got != oracle || got != tc.want {
			t.Errorf("curves %s: taskChanged=%v, reflect oracle=%v, want %v", tc.name, got, oracle, tc.want)
		}
	}

	// 1 000 random unchanged pairs from freshly generated workloads.
	rng := rand.New(rand.NewSource(5))
	for pairs := 0; pairs < 1000; {
		cfg := workload.DefaultRandomConfig(rng.Int63())
		cfg.MixedCurves = true
		rw, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range rw.Tasks {
			c := rw.Curves[a.Name]
			if workload.TaskChanged(a, a.Clone(), c, c) || taskChangedReflect(a, a.Clone(), c, c) {
				t.Fatalf("unchanged task %s of seed %d reported changed", a.Name, cfg.Seed)
			}
			pairs++
		}
	}
}

// addFreeEdge adds one precedence edge the task does not have yet.
func addFreeEdge(t *testing.T, b *task.Task) {
	t.Helper()
	n := len(b.Subtasks)
	for from := 0; from < n; from++ {
		for to := from + 1; to < n; to++ {
			if b.AddEdge(from, to) == nil {
				return
			}
		}
	}
	// A complete DAG: grow it by one subtask so there is an edge to add.
	b.MustEdge(0, b.AddSubtask(task.Subtask{Name: "extra", Resource: "r", ExecMs: 1}))
}

// TestFleetReplaceWorkloadRejectsInvalid: a workload that does not validate
// is refused before any state is touched — the fleet stays certified, every
// shard keeps its state, and the next valid ReplaceWorkload goes through.
func TestFleetReplaceWorkloadRejectsInvalid(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 1, Engine: core.Config{PriceSolver: price.SolverGradient}, localFreeze: true, LocalIters: 5000}
	w := clusteredWorkload(t, 17, 0.25)
	f, err := New(w, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}
	hashes := func() []uint64 {
		out := make([]uint64, f.Shards())
		for s := range out {
			out[s] = f.shards[s].stateHash()
		}
		return out
	}
	before := hashes()
	part := f.Partition()

	// Two tasks of different shards, for the duplicate-name case.
	first := part.ShardTasks[0][0]
	other := part.ShardTasks[f.Shards()-1][0]
	for _, tc := range []struct {
		name   string
		mutate func(w2 *workload.Workload)
		want   string
	}{
		{"duplicate task name across shards", func(w2 *workload.Workload) {
			w2.Tasks[other].Name = w2.Tasks[first].Name
		}, "duplicate task"},
		{"unknown resource", func(w2 *workload.Workload) {
			w2.Tasks[first].Subtasks[0].Resource = "nowhere"
		}, "unknown resource"},
		{"missing curve", func(w2 *workload.Workload) {
			delete(w2.Curves, w2.Tasks[first].Name)
		}, "no utility curve"},
		{"NaN critical time", func(w2 *workload.Workload) {
			w2.Tasks[first].CriticalMs = math.NaN()
		}, "critical time must be positive"},
		{"zero availability", func(w2 *workload.Workload) {
			w2.Resources[0] = share.Resource{ID: w2.Resources[0].ID, Kind: w2.Resources[0].Kind}
		}, "availability"},
		{"empty task name", func(w2 *workload.Workload) {
			w2.Curves[""] = w2.Curves[w2.Tasks[first].Name]
			w2.Tasks[first].Name = ""
		}, "task has empty name"},
		// The cases that attack inheritance: every task they break is field
		// for field the one the fleet validated.
		{"unchanged task whose resource left the table", func(w2 *workload.Workload) {
			id := w2.Tasks[first].Subtasks[0].Resource
			w2.Resources = slices.DeleteFunc(w2.Resources, func(r share.Resource) bool { return r.ID == id })
		}, "unknown resource"},
		{"unchanged task whose resource was renamed in place", func(w2 *workload.Workload) {
			id := w2.Tasks[first].Subtasks[0].Resource
			w2.Resources[slices.IndexFunc(w2.Resources, func(r share.Resource) bool { return r.ID == id })].ID = "elsewhere"
		}, "unknown resource"},
		{"earlier task renamed onto an untouched later one", func(w2 *workload.Workload) {
			w2.Tasks[first].Name = w2.Tasks[other].Name
		}, "duplicate task"},
		{"two tasks renamed onto one new name", func(w2 *workload.Workload) {
			w2.Tasks[first].Name, w2.Tasks[other].Name = "twin", "twin"
			w2.Curves["twin"] = utility.Linear{K: 2, CMs: 100}
		}, "duplicate task"},
		{"non-concave curve on an otherwise identical task", func(w2 *workload.Workload) {
			w2.Curves[w2.Tasks[first].Name] = utility.Quadratic{A: 1, B: -1}
		}, "non-increasing"},
		{"duplicate resource", func(w2 *workload.Workload) {
			w2.Resources = append(w2.Resources, w2.Resources[0])
		}, "duplicate resource"},
	} {
		w2 := w.Clone()
		tc.mutate(w2)
		if _, err := f.ReplaceWorkload(w2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
		if f.Partition() != part || !reflect.DeepEqual(hashes(), before) {
			t.Fatalf("%s: rejected workload changed fleet state", tc.name)
		}
		if done, err := f.Round(); err != nil || !done {
			t.Fatalf("%s: fleet no longer certified after the rejection: done=%v err=%v", tc.name, done, err)
		}
		if !reflect.DeepEqual(hashes(), before) {
			t.Fatalf("%s: a round after the rejection moved shard state", tc.name)
		}
	}

	w2 := w.Clone()
	w2.Tasks[first].CriticalMs *= 0.9
	st, err := f.ReplaceWorkload(w2)
	if err != nil || st.Full || st.Rebuilt != 1 {
		t.Fatalf("valid ReplaceWorkload after rejections: %+v, err %v; want one shard rebuilt", st, err)
	}
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("re-run: converged=%v err=%v", res.Converged, err)
	}
}

// allocWorkload is the alloc-budget tests' 20 000-subtask chain workload:
// 4 000 five-subtask tasks in 8 clusters.
func allocWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultClusteredConfig(1)
	cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor = 8, 50, 10
	cfg.ResourcesPerCluster, cfg.MinSubtasks, cfg.MaxSubtasks = 100, 5, 5
	cfg.ChainOnly, cfg.SlackFactor, cfg.CrossFraction = true, 100, 0.002
	w, err := workload.Clustered(cfg)
	if err != nil {
		t.Fatalf("Clustered: %v", err)
	}
	if w.TotalSubtasks() != 20000 {
		t.Fatalf("workload has %d subtasks, want 20000", w.TotalSubtasks())
	}
	return w
}

// newAllocsPerTask is the ceiling on heap objects fleet.New allocates per
// task of allocWorkload. The count repeats to within a few objects (serial
// build, no pools), so the ceiling sits just above the 0.19 measured. No
// object is allocated per task — validation checks small tasks' names
// without a map and compile walks each task's paths straight into the
// shard's flat arrays — so what a task pays is its share of the per-shard
// arrays and maps.
const newAllocsPerTask = 0.25

// TestFleetBuildAllocBudget pins fleet.New's allocation count per task.
func TestFleetBuildAllocBudget(t *testing.T) {
	w := allocWorkload(t)
	cfg := Config{Shards: 8, Seed: 1, ShardWorkers: 1, Engine: core.Config{Workers: 1}}
	var buildErr error
	allocs := testing.AllocsPerRun(3, func() {
		f, err := New(w, cfg)
		if err != nil {
			buildErr = err
			return
		}
		f.Close()
	})
	if buildErr != nil {
		t.Fatalf("New: %v", buildErr)
	}
	perTask := allocs / float64(len(w.Tasks))
	t.Logf("fleet.New: %.0f objects, %.2f per task (ceiling %.2f)", allocs, perTask, newAllocsPerTask)
	if perTask > newAllocsPerTask {
		t.Fatalf("fleet.New allocates %.2f objects per task, ceiling %.2f", perTask, newAllocsPerTask)
	}
}

// replaceAllocsPerEvent is the ceiling on heap objects one ReplaceWorkload
// allocates when the delta dirties one of allocWorkload's eight shards
// (133 measured): the rebuilt shard's arrays plus whole-workload
// bookkeeping, a few dozen slices and maps, not objects per task.
const replaceAllocsPerEvent = 162

// oneShardEvents returns a certified fleet over allocWorkload and n
// successive workloads for it, each tightening one more task of shard 3.
func oneShardEvents(t *testing.T, n int) (*Fleet, []*workload.Workload) {
	t.Helper()
	cfg := Config{Shards: 8, Seed: 1, ShardWorkers: 1, Engine: core.Config{Workers: 1}}
	f, err := New(allocWorkload(t), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if res, err := f.Run(); err != nil || !res.Converged {
		t.Fatalf("initial run: converged=%v err=%v", res.Converged, err)
	}
	shard := f.Partition().ShardTasks[3]
	next := make([]*workload.Workload, n)
	cur := f.ck.Workload()
	for i := range next {
		cur = cur.Clone()
		cur.Tasks[shard[i]].CriticalMs *= 0.9
		next[i] = cur
	}
	return f, next
}

// TestFleetReplaceAllocBudget pins what a one-shard churn event allocates:
// the delta, not the workload.
func TestFleetReplaceAllocBudget(t *testing.T) {
	// The successive workloads are built before AllocsPerRun counts.
	const runs = 4
	f, next := oneShardEvents(t, runs+1)
	defer f.Close()
	i := 0
	var st ReplaceStats
	var repErr error
	allocs := testing.AllocsPerRun(runs, func() {
		st, repErr = f.ReplaceWorkload(next[i])
		i++
	})
	if repErr != nil {
		t.Fatalf("ReplaceWorkload: %v", repErr)
	}
	if st.Full || st.Rebuilt != 1 {
		t.Fatalf("event rebuilt %d shards (full=%v), want exactly 1", st.Rebuilt, st.Full)
	}
	t.Logf("ReplaceWorkload: %.0f objects per one-shard event (ceiling %d)", allocs, replaceAllocsPerEvent)
	if allocs > replaceAllocsPerEvent {
		t.Fatalf("one-shard ReplaceWorkload allocates %.0f objects, ceiling %d", allocs, replaceAllocsPerEvent)
	}
}

// replaceBytesPerEvent is the ceiling on the bytes one ReplaceWorkload
// allocates when the delta dirties one of allocWorkload's eight shards
// (621 784 measured, +5 %): the proof's arrays, the diff's vectors and the
// rebuilt shard.
const replaceBytesPerEvent = 653_000

// TestFleetReplaceBytesBudget pins the bytes a one-shard churn event
// allocates, beside TestFleetReplaceAllocBudget's objects. The first event,
// which indexes the task names, is not counted.
func TestFleetReplaceBytesBudget(t *testing.T) {
	const runs = 4
	f, next := oneShardEvents(t, runs+1)
	defer f.Close()
	var before, after runtime.MemStats
	for i, w := range next {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if st, err := f.ReplaceWorkload(w); err != nil || st.Full || st.Rebuilt != 1 {
			t.Fatalf("event %d: %+v, err %v; want one shard rebuilt", i, st, err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("ReplaceWorkload: %.0f B per one-shard event (ceiling %d)", perOp, replaceBytesPerEvent)
	if perOp > replaceBytesPerEvent {
		t.Fatalf("one-shard ReplaceWorkload allocates %.0f B, ceiling %d", perOp, replaceBytesPerEvent)
	}
}

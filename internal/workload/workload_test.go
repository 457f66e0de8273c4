package workload

import (
	"encoding/json"
	"maps"
	"math"
	"reflect"
	"testing"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
)

func TestBaseValidates(t *testing.T) {
	w := Base()
	if err := w.Validate(); err != nil {
		t.Fatalf("base workload invalid: %v", err)
	}
	if len(w.Tasks) != 3 || len(w.Resources) != 8 {
		t.Fatalf("base shape: %d tasks, %d resources", len(w.Tasks), len(w.Resources))
	}
	if w.TotalSubtasks() != 21 {
		t.Fatalf("TotalSubtasks = %d, want 21", w.TotalSubtasks())
	}
}

// tableLatencyVector maps the published Table 1 latencies onto a task's
// subtask index order.
func tableLatencyVector(t *testing.T, tk *task.Task) []float64 {
	t.Helper()
	ref := Table1LatenciesMs()[tk.Name]
	if ref == nil {
		t.Fatalf("no Table 1 reference for %s", tk.Name)
	}
	lats := make([]float64, len(tk.Subtasks))
	for i, s := range tk.Subtasks {
		v, ok := ref[s.Name]
		if !ok {
			t.Fatalf("no Table 1 latency for %s.%s", tk.Name, s.Name)
		}
		lats[i] = v
	}
	return lats
}

// The central reconstruction check (see DESIGN.md): at the published Table 1
// latencies, with lag=1ms and B_r=1, the share sums on all eight resources
// are ≈ 1.00 — the paper's "all resources are close to congestion".
func TestBaseReconstructionSharesSumToAvailability(t *testing.T) {
	w := Base()
	sums := make(map[string]float64)
	for _, tk := range w.Tasks {
		lats := tableLatencyVector(t, tk)
		for si, s := range tk.Subtasks {
			r, ok := w.ResourceByID(s.Resource)
			if !ok {
				t.Fatalf("unknown resource %s", s.Resource)
			}
			fn := share.WCETLag{ExecMs: s.ExecMs, LagMs: r.LagMs}
			sums[s.Resource] += fn.Share(lats[si])
		}
	}
	if len(sums) != 8 {
		t.Fatalf("share sums over %d resources, want 8", len(sums))
	}
	for id, sum := range sums {
		if math.Abs(sum-1.0) > 0.02 {
			t.Errorf("resource %s share sum = %.4f, want ≈ 1.00 (Table 1 reconstruction)", id, sum)
		}
	}
}

// At the published latencies, each task's critical path must match the
// published Crit.Path row and respect the critical time.
func TestBaseReconstructionCriticalPaths(t *testing.T) {
	w := Base()
	wantCP := Table1CriticalPathsMs()
	for _, tk := range w.Tasks {
		lats := tableLatencyVector(t, tk)
		cp, _, err := tk.CriticalPathMs(lats)
		if err != nil {
			t.Fatal(err)
		}
		// 0.15ms tolerance: Table 1 is rounded to 0.1ms and our task-2
		// reconstruction has two nearly-tied longest paths (75.6 / 75.7).
		if math.Abs(cp-wantCP[tk.Name]) > 0.15 {
			t.Errorf("%s critical path = %.2f, published %.2f", tk.Name, cp, wantCP[tk.Name])
		}
		if cp > tk.CriticalMs+0.15 {
			t.Errorf("%s critical path %.2f exceeds critical time %.1f", tk.Name, cp, tk.CriticalMs)
		}
	}
}

// Structural expectations from the KKT derivation: task1 has 4 paths, task2
// has 3 paths with single leaf T28, task3 is a 6-chain.
func TestBaseGraphShapes(t *testing.T) {
	w := Base()
	p1, _ := w.Tasks[0].Paths()
	if len(p1) != 4 {
		t.Errorf("task1 paths = %d, want 4", len(p1))
	}
	p2, _ := w.Tasks[1].Paths()
	if len(p2) != 3 {
		t.Errorf("task2 paths = %d, want 3", len(p2))
	}
	var leaves2 []int
	for i := range w.Tasks[1].Subtasks {
		if len(w.Tasks[1].Successors(i)) == 0 {
			leaves2 = append(leaves2, i)
		}
	}
	if len(leaves2) != 1 || w.Tasks[1].Subtasks[leaves2[0]].Name != "T28" {
		t.Errorf("task2 leaves = %v, want single T28", leaves2)
	}
	p3, _ := w.Tasks[2].Paths()
	if len(p3) != 1 || len(p3[0]) != 6 {
		t.Errorf("task3 paths = %v, want one 6-chain", p3)
	}
}

func TestPrototypeShape(t *testing.T) {
	w := Prototype()
	if err := w.Validate(); err != nil {
		t.Fatalf("prototype invalid: %v", err)
	}
	if len(w.Tasks) != 4 || len(w.Resources) != 3 {
		t.Fatalf("shape: %d tasks, %d resources", len(w.Tasks), len(w.Resources))
	}
	// Minimum shares: 0.2 for fast, 0.13 for slow; their sum is the 66%
	// utilization quoted in Section 6.2.
	perCPU := 0.0
	for _, s := range w.Tasks[0].Subtasks {
		if math.Abs(s.MinShare-0.2) > 1e-12 {
			t.Errorf("fast MinShare = %v, want 0.2", s.MinShare)
		}
		_ = s
	}
	for _, s := range w.Tasks[2].Subtasks {
		if math.Abs(s.MinShare-0.13) > 1e-12 {
			t.Errorf("slow MinShare = %v, want 0.13", s.MinShare)
		}
	}
	for _, tk := range w.Tasks {
		perCPU += tk.Subtasks[0].MinShare
	}
	if math.Abs(perCPU-0.66) > 1e-9 {
		t.Errorf("per-CPU minimum share sum = %v, want 0.66", perCPU)
	}
	for _, r := range w.Resources {
		if math.Abs(r.Availability-0.9) > 1e-12 {
			t.Errorf("availability = %v, want 0.9 (GC reserve)", r.Availability)
		}
	}
}

func TestReplicateScalesTasks(t *testing.T) {
	base := Base()
	w6, err := Replicate(base, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w6.Validate(); err != nil {
		t.Fatalf("replicated workload invalid: %v", err)
	}
	if len(w6.Tasks) != 6 {
		t.Fatalf("tasks = %d, want 6", len(w6.Tasks))
	}
	if len(w6.Resources) != len(base.Resources) {
		t.Error("replication must share the resource pool")
	}
	// Critical times scaled; linear curves rebuilt against the new C.
	if w6.Tasks[3].CriticalMs != 180 {
		t.Errorf("scaled critical = %v, want 180", w6.Tasks[3].CriticalMs)
	}
	lin, ok := w6.Curves[w6.Tasks[3].Name].(utility.Linear)
	if !ok || lin.CMs != 180 {
		t.Errorf("curve not rebuilt: %+v", w6.Curves[w6.Tasks[3].Name])
	}
	// The original workload is untouched.
	if base.Tasks[0].CriticalMs != 45 {
		t.Error("Replicate mutated its input")
	}
}

func TestReplicateErrors(t *testing.T) {
	if _, err := Replicate(Base(), 0, 1); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := Replicate(Base(), 2, 0); err == nil {
		t.Error("zero crit scale should fail")
	}
}

func TestReplicateRejectsBadCriticalScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if w, err := Replicate(Base(), 2, scale); err == nil {
			t.Errorf("Replicate(Base(), 2, %v) = %d tasks, want an error", scale, len(w.Tasks))
		}
	}
}

func TestRandomWorkloadDeterministic(t *testing.T) {
	cfg := DefaultRandomConfig(7)
	w1, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(w1)
	j2, _ := json.Marshal(w2)
	if string(j1) != string(j2) {
		t.Error("same seed must produce identical workloads")
	}
	w3, err := Random(DefaultRandomConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	j3, _ := json.Marshal(w3)
	if string(j1) == string(j3) {
		t.Error("different seeds should produce different workloads")
	}
}

func TestRandomWorkloadValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w, err := Random(DefaultRandomConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomChainOnly(t *testing.T) {
	cfg := DefaultRandomConfig(3)
	cfg.ChainOnly = true
	w, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		paths, _ := tk.Paths()
		if len(paths) != 1 {
			t.Errorf("%s is not a chain: %d paths", tk.Name, len(paths))
		}
	}
}

func TestRandomConfigValidation(t *testing.T) {
	bad := []func(*RandomConfig){
		func(c *RandomConfig) { c.NumTasks = 0 },
		func(c *RandomConfig) { c.NumResources = 1 },
		func(c *RandomConfig) { c.MinSubtasks = 0 },
		func(c *RandomConfig) { c.MaxSubtasks = 2 }, // below MinSubtasks=3
		func(c *RandomConfig) { c.MaxSubtasks = 99 },
		func(c *RandomConfig) { c.MinExecMs = 0 },
		func(c *RandomConfig) { c.MaxExecMs = 0.1 },
		func(c *RandomConfig) { c.SlackFactor = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultRandomConfig(1)
		mut(&cfg)
		if _, err := Random(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	mkValid := func() *Workload {
		tk := task.NewBuilder("t", 50).
			Subtask("a", "r0", 1).Subtask("b", "r1", 1).
			Edge("a", "b").MustBuild()
		return &Workload{
			Name:  "w",
			Tasks: []*task.Task{tk},
			Resources: []share.Resource{
				{ID: "r0", Kind: share.CPU, Availability: 1},
				{ID: "r1", Kind: share.Link, Availability: 1},
			},
			Curves: map[string]utility.Curve{"t": utility.Linear{K: 2, CMs: 50}},
		}
	}
	if err := mkValid().Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}

	w := mkValid()
	w.Tasks = nil
	if err := w.Validate(); err == nil {
		t.Error("empty tasks should fail")
	}

	w = mkValid()
	w.Resources = nil
	if err := w.Validate(); err == nil {
		t.Error("empty resources should fail")
	}

	w = mkValid()
	w.Resources = append(w.Resources, w.Resources[0])
	if err := w.Validate(); err == nil {
		t.Error("duplicate resource should fail")
	}

	w = mkValid()
	w.Tasks = append(w.Tasks, w.Tasks[0])
	if err := w.Validate(); err == nil {
		t.Error("duplicate task should fail")
	}

	w = mkValid()
	w.Tasks[0].Subtasks[1].Resource = "r9"
	if err := w.Validate(); err == nil {
		t.Error("unknown resource reference should fail")
	}

	w = mkValid()
	w.Tasks[0].Subtasks[1].Resource = "r0"
	if err := w.Validate(); err == nil {
		t.Error("two subtasks of one task on one resource should fail")
	}

	w = mkValid()
	delete(w.Curves, "t")
	if err := w.Validate(); err == nil {
		t.Error("missing curve should fail")
	}
}

// TestCloneIsDeep: a clone's tasks share backing arrays with one another,
// never with the original, so growing, rewiring or renaming a cloned task, or
// editing the clone's resources or curves, leaves the original byte for byte
// as it was.
func TestCloneIsDeep(t *testing.T) {
	w := Base()
	before, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	extra := task.Subtask{Name: "extra", Resource: w.Resources[0].ID, ExecMs: 1}
	c.Tasks[0].CriticalMs = 999
	c.Tasks[0].MustEdge(0, c.Tasks[0].AddSubtask(extra))
	c.Tasks[1].Subtasks = append(c.Tasks[1].Subtasks, extra)
	c.Tasks[2].Name, c.Tasks[2].Subtasks[0].Name = "renamed", "renamed-0"
	c.Resources[0].Availability = 0.5
	c.Curves["task1"] = utility.NegLatency{}
	delete(c.Curves, "task2")
	if after, _ := json.Marshal(w); string(after) != string(before) {
		t.Errorf("editing the clone changed the original:\n got %s\nwant %s", after, before)
	}
}

// allocSource is one fleet-1m-cold cluster before replication: 125 chains of
// five subtasks over 500 resources.
func allocSource(t *testing.T) *Workload {
	t.Helper()
	cfg := DefaultRandomConfig(1)
	cfg.NumTasks, cfg.NumResources, cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 125, 500, 5, 5, true
	w, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReplicateAllocBudget pins Replicate's heap objects per replicated task
// (10.95 while every copy was a task, a subtask slice, two row blocks, a
// string per name and a curve of its own): the copies are carved by the
// chunk, each copy's names from one string, and copies share their source
// task's curve.
func TestReplicateAllocBudget(t *testing.T) {
	const factor, ceiling = 100, 0.25
	w := allocSource(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Replicate(w, factor, 1); err != nil {
			t.Fatal(err)
		}
	})
	perTask := allocs / float64(factor*len(w.Tasks))
	t.Logf("Replicate: %.0f objects, %.3f per task (ceiling %.2f)", allocs, perTask, ceiling)
	if perTask > ceiling {
		t.Fatalf("Replicate allocates %.3f objects per task, ceiling %.2f", perTask, ceiling)
	}
}

// TestWorkloadCloneAllocBudget pins Workload.Clone beyond its Curves map to
// a few objects per chunk of tasks (4.0 per task while each task was cloned
// on its own).
func TestWorkloadCloneAllocBudget(t *testing.T) {
	const ceiling = 0.05
	w, err := Replicate(allocSource(t), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	curves := testing.AllocsPerRun(3, func() { _ = maps.Clone(w.Curves) })
	allocs := testing.AllocsPerRun(3, func() { _ = w.Clone() })
	perTask := (allocs - curves) / float64(len(w.Tasks))
	t.Logf("Clone: %.0f objects, %.0f of them the Curves map, %.4f per task beyond it (ceiling %.2f)", allocs, curves, perTask, ceiling)
	if perTask > ceiling {
		t.Fatalf("Clone allocates %.4f objects per task beyond its Curves map, ceiling %.2f", perTask, ceiling)
	}
}

func TestSubtasksOn(t *testing.T) {
	w := Base()
	m := w.SubtasksOn()
	// r0 hosts T11, T21, T31.
	if len(m["r0"]) != 3 {
		t.Errorf("r0 hosts %d subtasks, want 3", len(m["r0"]))
	}
	// r3 hosts T14 and T27 only.
	if len(m["r3"]) != 2 {
		t.Errorf("r3 hosts %d subtasks, want 2", len(m["r3"]))
	}
	total := 0
	for _, v := range m {
		total += len(v)
	}
	if total != w.TotalSubtasks() {
		t.Errorf("SubtasksOn covers %d, want %d", total, w.TotalSubtasks())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, w := range []*Workload{Base(), Prototype()} {
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", w.Name, err)
		}
		var back Workload
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", w.Name, err)
		}
		if back.Name != w.Name || len(back.Tasks) != len(w.Tasks) || len(back.Resources) != len(w.Resources) {
			t.Fatalf("%s: round trip changed shape", w.Name)
		}
		data2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: round trip not idempotent", w.Name)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: decoded workload invalid: %v", w.Name, err)
		}
	}
}

// TestJSONCurveRoundTrip re-encodes every curve kind decodeCurve accepts to
// the JSON it was decoded from, and a workload holding a decoded piecewise
// curve survives Marshal and Unmarshal.
func TestJSONCurveRoundTrip(t *testing.T) {
	for _, cj := range []curveJSON{
		{Kind: "linear", K: 2, CMs: 40},
		{Kind: "neg-latency"},
		{Kind: "quadratic", A: 100, B: 0.01},
		{Kind: "exp-penalty", A: 10, B: 1, Tau: 50},
		{Kind: "piecewise", Xs: []float64{0, 50, 100}, Ys: []float64{10, 5, 0}},
	} {
		c, err := decodeCurve(cj)
		if err != nil {
			t.Fatalf("%s: decode: %v", cj.Kind, err)
		}
		back, err := encodeCurve(c)
		if err != nil {
			t.Fatalf("%s: encode: %v", cj.Kind, err)
		}
		if !reflect.DeepEqual(back, cj) {
			t.Errorf("%s: re-encoded as %+v", cj.Kind, back)
		}
	}
	in := `{"name":"pw","resources":[{"id":"r0","kind":"cpu","availability":1}],
	  "tasks":[{"name":"t","criticalMs":100,"curve":{"kind":"piecewise","xs":[0,50,100],"ys":[10,5,0]},
	  "subtasks":[{"name":"a","resource":"r0","execMs":1}],"edges":[]}]}`
	var w Workload
	if err := json.Unmarshal([]byte(in), &w); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(&w)
	if err != nil {
		t.Fatalf("decoded piecewise workload does not re-encode: %v", err)
	}
	var back Workload
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Curves["t"].Value(75), w.Curves["t"].Value(75); got != want {
		t.Errorf("round-tripped curve gives %v at 75, want %v", got, want)
	}
	if _, err := encodeCurve((*utility.PiecewiseLinear)(nil)); err == nil {
		t.Error("a nil piecewise curve should not encode")
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	var w Workload
	if err := json.Unmarshal([]byte(`{`), &w); err == nil {
		t.Error("syntax error should fail")
	}
	if err := json.Unmarshal([]byte(`{"name":"x","resources":[{"id":"r0","kind":"warp","availability":1}],"tasks":[]}`), &w); err == nil {
		t.Error("unknown kind should fail")
	}
	bad := `{"name":"x","resources":[{"id":"r0","kind":"cpu","availability":1}],
	  "tasks":[{"name":"t","criticalMs":10,"curve":{"kind":"nope"},
	  "subtasks":[{"name":"a","resource":"r0","execMs":1}],"edges":[]}]}`
	if err := json.Unmarshal([]byte(bad), &w); err == nil {
		t.Error("unknown curve should fail")
	}
	badTrig := `{"name":"x","resources":[{"id":"r0","kind":"cpu","availability":1}],
	  "tasks":[{"name":"t","criticalMs":10,"trigger":{"kind":"warp","periodMs":1},
	  "curve":{"kind":"neg-latency"},
	  "subtasks":[{"name":"a","resource":"r0","execMs":1}],"edges":[]}]}`
	if err := json.Unmarshal([]byte(badTrig), &w); err == nil {
		t.Error("unknown trigger should fail")
	}
}

func TestResourceAndTaskLookup(t *testing.T) {
	w := Base()
	if _, ok := w.ResourceByID("r5"); !ok {
		t.Error("r5 should exist")
	}
	if _, ok := w.ResourceByID("zz"); ok {
		t.Error("zz should not exist")
	}
	if w.TaskByName("task2") == nil {
		t.Error("task2 should exist")
	}
	if w.TaskByName("zz") != nil {
		t.Error("zz task should not exist")
	}
}

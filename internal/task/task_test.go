package task

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the DAG a -> {b, c} -> d used across tests.
func diamond(t *testing.T) *Task {
	t.Helper()
	tk, err := NewBuilder("diamond", 100).
		Trigger(Periodic(50)).
		Subtask("a", "r0", 1).
		Subtask("b", "r1", 2).
		Subtask("c", "r2", 3).
		Subtask("d", "r3", 4).
		Edge("a", "b").Edge("a", "c").Edge("b", "d").Edge("c", "d").
		Build()
	if err != nil {
		t.Fatalf("build diamond: %v", err)
	}
	return tk
}

func TestRootAndLeaves(t *testing.T) {
	tk := diamond(t)
	root, err := tk.Root()
	if err != nil || root != 0 {
		t.Fatalf("Root = %d, %v; want 0, nil", root, err)
	}
	var leaves []int
	for i := range tk.Subtasks {
		if len(tk.Successors(i)) == 0 {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) != 1 || leaves[0] != 3 {
		t.Fatalf("leaves = %v, want [3]", leaves)
	}
}

func TestPathsDiamond(t *testing.T) {
	tk := diamond(t)
	paths, err := tk.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2 paths", paths)
	}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 3 || len(p) != 3 {
			t.Errorf("unexpected path %v", p)
		}
	}
}

// TestPathsFollowMutation: nothing is cached on a task, so Paths sees every
// edge added since its last call.
func TestPathsFollowMutation(t *testing.T) {
	tk := diamond(t)
	p1, _ := tk.Paths()
	tk.AddSubtask(Subtask{Name: "e", Resource: "r4", ExecMs: 1})
	tk.MustEdge(3, 4)
	p2, _ := tk.Paths()
	if want := [][]int{{0, 1, 3, 4}, {0, 2, 3, 4}}; !reflect.DeepEqual(p2, want) || len(p1[0]) != 3 {
		t.Fatalf("paths after adding an edge %v, want %v (before: %v)", p2, want, p1)
	}
}

func TestPathCountAndWeights(t *testing.T) {
	tk := diamond(t)
	want := []int{2, 1, 1, 2} // paths through each subtask
	wsum, _ := tk.Weights(WeightSum)
	for i, w := range wsum {
		if w != 1 {
			t.Errorf("sum weight[%d] = %v, want 1", i, w)
		}
	}
	wnorm, _ := tk.Weights(WeightPathNormalized)
	wantNorm := []float64{1, 0.5, 0.5, 1}
	for i, w := range wnorm {
		if math.Abs(w-wantNorm[i]) > 1e-12 {
			t.Errorf("normalized weight[%d] = %v, want %v", i, w, wantNorm[i])
		}
	}
	wraw, _ := tk.Weights(WeightPathRaw)
	for i := range wraw {
		if math.Abs(wraw[i]-float64(want[i])) > 1e-12 {
			t.Errorf("raw weight[%d] = %v, want %v", i, wraw[i], want[i])
		}
	}
	if _, err := tk.Weights(WeightMode(99)); err == nil {
		t.Error("unknown weight mode should error")
	}
}

// Property: the normalized weighted latency sum equals the mean path latency
// for arbitrary latency vectors.
func TestNormalizedWeightsGiveMeanPathLatency(t *testing.T) {
	tk := diamond(t)
	weights, _ := tk.Weights(WeightPathNormalized)
	paths, _ := tk.Paths()
	f := func(a, b, c, d uint16) bool {
		lats := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1}
		got, err := WeightedLatencyMs(weights, lats)
		if err != nil {
			return false
		}
		mean := 0.0
		for _, p := range paths {
			sum := 0.0
			for _, s := range p {
				sum += lats[s]
			}
			mean += sum
		}
		mean /= float64(len(paths))
		return math.Abs(got-mean) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPath(t *testing.T) {
	tk := diamond(t)
	lat := []float64{1, 10, 2, 5}
	cp, idx, err := tk.CriticalPathMs(lat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp-16) > 1e-12 {
		t.Errorf("critical path = %v, want 16 (a-b-d)", cp)
	}
	paths, _ := tk.Paths()
	sum := 0.0
	for _, s := range paths[idx] {
		sum += lat[s]
	}
	if sum != cp {
		t.Errorf("returned index %d does not identify the critical path", idx)
	}
	if _, _, err := tk.CriticalPathMs([]float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	tk := New("cyclic", 10)
	tk.AddSubtask(Subtask{Name: "a", Resource: "r", ExecMs: 1})
	tk.AddSubtask(Subtask{Name: "b", Resource: "r", ExecMs: 1})
	tk.MustEdge(0, 1)
	tk.MustEdge(1, 0)
	if err := tk.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate = %v, want cycle error", err)
	}
}

// TestValidateCatchesUnreachable: Validate has no reachability walk of its
// own — a subtask the root cannot reach is a second root or sits behind a
// cycle, and both are rejected.
func TestValidateCatchesUnreachable(t *testing.T) {
	tk := New("island", 10)
	for _, name := range []string{"a", "b", "c", "d"} {
		tk.AddSubtask(Subtask{Name: name, Resource: "r" + name, ExecMs: 1})
	}
	tk.MustEdge(0, 1)
	tk.MustEdge(2, 3)
	if err := tk.Validate(); err == nil || !strings.Contains(err.Error(), "multiple roots") {
		t.Fatalf("second component with a root: Validate = %v, want multiple-roots error", err)
	}
	tk.MustEdge(3, 2)
	if err := tk.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("second component closed into a cycle: Validate = %v, want cycle error", err)
	}
}

func TestValidateCatchesMultipleRoots(t *testing.T) {
	tk := New("two-roots", 10)
	tk.AddSubtask(Subtask{Name: "a", Resource: "r", ExecMs: 1})
	tk.AddSubtask(Subtask{Name: "b", Resource: "r", ExecMs: 1})
	if err := tk.Validate(); err == nil || !strings.Contains(err.Error(), "multiple roots") {
		t.Fatalf("Validate = %v, want multiple-roots error", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Task)
		want string
	}{
		{"no subtasks", func(tk *Task) { tk.Subtasks, tk.succEnd, tk.succ, tk.indeg = nil, nil, nil, nil }, "no subtasks"},
		{"bad critical", func(tk *Task) { tk.CriticalMs = 0 }, "critical time"},
		{"bad wcet", func(tk *Task) { tk.Subtasks[0].ExecMs = -1 }, "WCET"},
		{"no resource", func(tk *Task) { tk.Subtasks[0].Resource = "" }, "no resource"},
		{"bad minshare", func(tk *Task) { tk.Subtasks[0].MinShare = 1.5 }, "MinShare"},
		{"empty name", func(tk *Task) { tk.Subtasks[0].Name = "" }, "empty name"},
		{"dup name", func(tk *Task) { tk.Subtasks[1].Name = "a" }, "duplicate"},
		{"empty task name", func(tk *Task) { tk.Name = "" }, "task has empty name"},
		{"NaN critical", func(tk *Task) { tk.CriticalMs = math.NaN() }, "critical time"},
		{"infinite critical", func(tk *Task) { tk.CriticalMs = math.Inf(1) }, "critical time"},
		{"NaN wcet", func(tk *Task) { tk.Subtasks[1].ExecMs = math.NaN() }, "WCET"},
		{"infinite wcet", func(tk *Task) { tk.Subtasks[1].ExecMs = math.Inf(1) }, "WCET"},
		{"NaN minshare", func(tk *Task) { tk.Subtasks[1].MinShare = math.NaN() }, "MinShare"},
		{"NaN period", func(tk *Task) { tk.Trigger = Periodic(math.NaN()) }, "period"},
		{"infinite period", func(tk *Task) { tk.Trigger = Poisson(math.Inf(1)) }, "period"},
		{"NaN bursty off", func(tk *Task) { tk.Trigger = Bursty(10, 5, math.NaN()) }, "bursty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tk := New("x", 10)
			tk.AddSubtask(Subtask{Name: "a", Resource: "r", ExecMs: 1})
			tk.AddSubtask(Subtask{Name: "b", Resource: "r", ExecMs: 1})
			tk.MustEdge(0, 1)
			c.mut(tk)
			err := tk.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// TestValidateDuplicateNamesAtEverySize: the pairwise check of tasks with up
// to 16 subtasks and the map of larger ones refuse the same duplicates with the same error,
// on one Validator reused across sizes, and pass distinct names.
func TestValidateDuplicateNamesAtEverySize(t *testing.T) {
	var v Validator
	for _, n := range []int{2, 3, 16, 17, 40, 16, 5} {
		chain := func() *Task {
			tk := New("chain", 1000)
			for i := 0; i < n; i++ {
				tk.AddSubtask(Subtask{Name: "s" + strconv.Itoa(i), Resource: "r" + strconv.Itoa(i), ExecMs: 1})
				if i > 0 {
					tk.MustEdge(i-1, i)
				}
			}
			return tk
		}
		if err := v.Validate(chain()); err != nil {
			t.Fatalf("n=%d: distinct names refused: %v", n, err)
		}
		for _, pair := range [][2]int{{0, n - 1}, {n / 2, n/2 - 1}, {n - 1, n - 2}} {
			tk := chain()
			tk.Subtasks[pair[0]].Name = tk.Subtasks[pair[1]].Name
			want := fmt.Sprintf("task chain: duplicate subtask name %q", tk.Subtasks[pair[1]].Name)
			if err := v.Validate(tk); err == nil || err.Error() != want {
				t.Fatalf("n=%d, subtask %d renamed to %d's name: Validate = %v, want %q", n, pair[0], pair[1], err, want)
			}
		}
	}
}

func TestAddEdgeErrors(t *testing.T) {
	tk := New("e", 10)
	tk.AddSubtask(Subtask{Name: "a", Resource: "r", ExecMs: 1})
	if err := tk.AddEdge(0, 0); err == nil {
		t.Error("self edge should fail")
	}
	if err := tk.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge should fail")
	}
	tk.AddSubtask(Subtask{Name: "b", Resource: "r", ExecMs: 1})
	if err := tk.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tk.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge should fail")
	}
}

func TestTopoSortOrder(t *testing.T) {
	tk := diamond(t)
	order := tk.topo(make([]int, 2*len(tk.Subtasks)))
	if len(order) != len(tk.Subtasks) {
		t.Fatalf("order %v does not cover the %d subtasks", order, len(tk.Subtasks))
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range tk.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topological order %v", e, order)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tk := diamond(t)
	c := tk.Clone()
	c.Subtasks[0].ExecMs = 99
	c.MustEdge(1, 2)
	if tk.Subtasks[0].ExecMs == 99 {
		t.Error("Clone shares subtask storage")
	}
	if len(tk.Successors(1)) == len(c.Successors(1)) {
		t.Error("Clone shares edge storage")
	}
}

// TestCloneRowsAreClipped: a clone's graph arrays — every subtask's row of
// successors back to back — share one backing array with its chunk, so each
// must be clipped to its length: growing one (AddEdge, AddSubtask) has to
// reallocate it, never write into the array behind it.
func TestCloneRowsAreClipped(t *testing.T) {
	tk := diamond(t) // a->b, a->c, b->d, c->d
	c := tk.Clone()
	if !reflect.DeepEqual(c, tk) {
		t.Fatalf("clone differs from its original: %+v, want %+v", c, tk)
	}
	for _, a := range [][]int{c.succEnd, c.succ, c.indeg} {
		if cap(a) != len(a) {
			t.Fatalf("graph array %v has capacity %d beyond its length", a, cap(a))
		}
	}
	// The same growth on the clone and on a task built edge by edge: the
	// clone must come out as that one.
	want := diamond(t)
	for _, tk := range []*Task{want, c} {
		tk.MustEdge(1, 2)
		tk.MustEdge(0, tk.AddSubtask(Subtask{Name: "e", Resource: "r", ExecMs: 1}))
	}
	if !reflect.DeepEqual(c.succEnd, want.succEnd) || !reflect.DeepEqual(c.succ, want.succ) || !reflect.DeepEqual(c.indeg, want.indeg) {
		t.Fatalf("growing a clone's graph:\n got %v %v %v\nwant %v %v %v", c.succEnd, c.succ, c.indeg, want.succEnd, want.succ, want.indeg)
	}
	for i, row := range [][]int{{1, 2, 4}, {3, 2}, {3}, nil, nil} {
		if got := c.Successors(i); !slices.Equal(got, row) || cap(got) != len(got) {
			t.Errorf("grown clone: subtask %d successors %v (cap %d), want %v", i, got, cap(got), row)
		}
		if got, want := c.InDegree(i), []int{0, 1, 2, 2, 1}[i]; got != want {
			t.Errorf("grown clone: subtask %d in-degree %d, want %d", i, got, want)
		}
	}
	if len(tk.Successors(1)) != 1 || len(tk.Subtasks) != 4 {
		t.Fatal("growing the clone changed the original")
	}
}

// TestCloneNIsolatesCopies: CloneN's copies share backing arrays, so each
// growth or rename of one copy must leave every chunk neighbour and the
// source as they were, and come out as the same edit of a task of its own.
func TestCloneNIsolatesCopies(t *testing.T) {
	other := diamond(t)
	other.Name, other.Subtasks[2].ExecMs = "other", 7
	src := []*Task{diamond(t), other}
	edits := []struct {
		name string
		edit func(c *Task)
	}{
		{"AddSubtask", func(c *Task) { c.MustEdge(3, c.AddSubtask(Subtask{Name: "e", Resource: "r4", ExecMs: 1})) }},
		{"AddEdge", func(c *Task) { c.MustEdge(1, 2) }},
		{"append to Subtasks", func(c *Task) { c.Subtasks = append(c.Subtasks, Subtask{Name: "e", Resource: "r4", ExecMs: 1}) }},
		{"rename", func(c *Task) { c.Name, c.Subtasks[0].Name = "renamed", "renamed-a" }},
	}
	const k = 3
	want := CloneN(src, 1) // the source as it was
	for _, ed := range edits {
		for j := 0; j < k*len(src); j++ {
			got := CloneN(src, k)
			own := CloneN(src[j%len(src):j%len(src)+1], 1)[0]
			ed.edit(got[j])
			ed.edit(own)
			if !reflect.DeepEqual(got[j], own) {
				t.Fatalf("%s on copy %d: got %+v, want %+v", ed.name, j, got[j], own)
			}
			for i, c := range got {
				if i != j && !reflect.DeepEqual(c, src[i%len(src)]) {
					t.Fatalf("%s on copy %d changed copy %d: %+v", ed.name, j, i, c)
				}
			}
			if !reflect.DeepEqual(src, want) {
				t.Fatalf("%s on copy %d changed the source", ed.name, j)
			}
		}
	}
	// Past one chunk, copy c of src[i] still sits at c*len(src)+i.
	for i, c := range CloneN(src, cloneChunk) {
		if !reflect.DeepEqual(c, src[i%len(src)]) {
			t.Fatalf("copy %d differs from its source", i)
		}
	}
}

// TestPathsAreClipped: the paths share one backing array too, in the
// depth-first order of the recursive enumeration.
func TestPathsAreClipped(t *testing.T) {
	paths, err := diamond(t).Paths()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 1, 3}, {0, 2, 3}}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("paths %v, want %v", paths, want)
	}
	for _, p := range paths {
		if cap(p) != len(p) {
			t.Fatalf("path %v has capacity %d beyond its length", p, cap(p))
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x", 10).Subtask("a", "r", 1).Subtask("a", "r", 1).Build(); err == nil {
		t.Error("duplicate subtask should fail build")
	}
	if _, err := NewBuilder("x", 10).Subtask("a", "r", 1).Edge("a", "zz").Build(); err == nil {
		t.Error("unknown edge endpoint should fail build")
	}
}

func TestBuilderChain(t *testing.T) {
	tk, err := NewBuilder("chain", 10).
		Subtask("a", "r", 1).Subtask("b", "r", 1).Subtask("c", "r", 1).
		Chain("a", "b", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := tk.Paths()
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("chain paths = %v", paths)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("x", -1).Subtask("a", "r", 1).MustBuild()
}

// randomDAGTask builds a random layered DAG and checks structural
// invariants: Σ_p |p| == Σ_s pathcount(s), normalized weights of the root
// equal 1, and every path starts at the root and ends at a leaf.
func TestRandomDAGPathInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		layers := 2 + rng.Intn(4)
		tk := New("rand"+strconv.Itoa(trial), 1000)
		var prev []int
		id := 0
		for l := 0; l < layers; l++ {
			width := 1
			if l > 0 {
				width = 1 + rng.Intn(3)
			}
			var cur []int
			for k := 0; k < width; k++ {
				idx := tk.AddSubtask(Subtask{Name: "s" + strconv.Itoa(id), Resource: "r", ExecMs: 1})
				id++
				cur = append(cur, idx)
				if l > 0 {
					// Connect to at least one node of the previous layer.
					tk.MustEdge(prev[rng.Intn(len(prev))], idx)
					for _, p := range prev {
						if rng.Float64() < 0.3 {
							_ = tk.AddEdge(p, idx) // duplicates rejected, fine
						}
					}
				}
			}
			prev = cur
		}
		if err := tk.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		paths, err := tk.Paths()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		counts, _ := tk.Weights(WeightPathRaw)
		sumLens, sumCounts := 0, 0.0
		for _, p := range paths {
			sumLens += len(p)
		}
		for _, c := range counts {
			sumCounts += c
		}
		if float64(sumLens) != sumCounts {
			t.Fatalf("trial %d: Σ|p|=%d != Σcounts=%v", trial, sumLens, sumCounts)
		}
		root, _ := tk.Root()
		w, _ := tk.Weights(WeightPathNormalized)
		if math.Abs(w[root]-1) > 1e-12 {
			t.Fatalf("trial %d: root weight = %v, want 1", trial, w[root])
		}
		for _, p := range paths {
			if p[0] != root {
				t.Fatalf("trial %d: path %v does not start at root", trial, p)
			}
			if len(tk.Successors(p[len(p)-1])) != 0 {
				t.Fatalf("trial %d: path %v does not end at a leaf", trial, p)
			}
		}
	}
}

func TestTriggerRateAndValidation(t *testing.T) {
	if err := Bursty(10, 100, 300).Validate(); err != nil {
		t.Errorf("bursty validate: %v", err)
	}
	if err := (Trigger{Kind: TriggerPeriodic, PeriodMs: 0}).Validate(); err == nil {
		t.Error("zero period should fail")
	}
	if err := (Trigger{Kind: TriggerKind(42)}).Validate(); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := (Trigger{}).Validate(); err != nil {
		t.Errorf("zero trigger should validate, got %v", err)
	}
}

func TestWeightModeString(t *testing.T) {
	cases := map[WeightMode]string{
		WeightSum:            "sum",
		WeightPathNormalized: "path-weighted",
		WeightPathRaw:        "path-weighted-raw",
		WeightMode(9):        "WeightMode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestTriggerKindString(t *testing.T) {
	cases := map[TriggerKind]string{
		TriggerPeriodic: "periodic",
		TriggerPoisson:  "poisson",
		TriggerBursty:   "bursty",
		TriggerKind(77): "TriggerKind(77)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

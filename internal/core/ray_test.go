package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// analyze is the static test of w's compiled problem.
func analyze(w *workload.Workload) (*SchedulabilityReport, error) {
	p, err := Compile(w, task.WeightPathNormalized)
	if err != nil {
		return nil, err
	}
	return p.Schedulability(), nil
}

func TestAnalyzeBaseWorkloadPasses(t *testing.T) {
	rep, err := analyze(workload.Base())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible() {
		t.Fatalf("base workload should pass necessary conditions: %v", rep)
	}
	if !strings.Contains(rep.String(), "passes") {
		t.Errorf("String = %q", rep.String())
	}
	// Floors are positive and below availability.
	for id, floor := range rep.ResourceFloor {
		if floor <= 0 || floor > 1 {
			t.Errorf("resource %s floor = %v", id, floor)
		}
	}
}

func TestAnalyzePrototypeFloorMatchesPaper(t *testing.T) {
	rep, err := analyze(workload.Prototype())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible() {
		t.Fatalf("prototype should pass: %v", rep)
	}
	// Per CPU: fast floor = max(0.2, 10/50) = 0.2 each; slow floor =
	// max(0.13, 18/138.46) = 0.13 each -> 0.66 (the paper's utilization).
	for _, id := range []string{"cpu0", "cpu1", "cpu2"} {
		if f := rep.ResourceFloor[id]; f < 0.659 || f > 0.661 {
			t.Errorf("%s floor = %v, want 0.66", id, f)
		}
	}
}

// The static floors are only necessary conditions: the unschedulable 6-task
// workload of Section 5.4 passes them (each subtask alone could stretch to
// its critical time), which is precisely why the paper uses LLA itself as
// the schedulability test. The static test documents this insufficiency.
func TestAnalyzeStaticFloorsAreInsufficient(t *testing.T) {
	w, err := workload.Replicate(workload.Base(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible() {
		t.Fatalf("the weak static floors were expected to pass here: %v", rep)
	}
}

func TestAnalyzeDetectsResourceOverload(t *testing.T) {
	// Min-share floors that provably exceed capacity: 4 subtasks of
	// MinShare 0.3 on one CPU.
	w := workload.Prototype()
	for _, tk := range w.Tasks {
		tk.Subtasks[0].MinShare = 0.3
	}
	rep, err := analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible() {
		t.Fatalf("1.2 total min share on a 0.9 CPU should fail: %+v", rep.ResourceFloor)
	}
	if len(rep.ResourceViolations) == 0 || rep.ResourceViolations[0] != "cpu0" {
		t.Errorf("violations = %v, want cpu0", rep.ResourceViolations)
	}
	if !strings.Contains(rep.String(), "unschedulable") {
		t.Errorf("String = %q", rep.String())
	}
}

func TestAnalyzeDetectsImpossiblePath(t *testing.T) {
	w := workload.Base()
	w.Tasks[2].CriticalMs = 10 // chain of 6 with Σ(c+l) = 24 > 10
	rep, err := analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PathViolations) == 0 {
		t.Fatal("expected a path violation")
	}
	found := false
	for _, v := range rep.PathViolations {
		if strings.HasPrefix(v, "task3/") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v, want task3 path", rep.PathViolations)
	}
}

func TestAnalyzeRejectsInvalidWorkload(t *testing.T) {
	w := workload.Base()
	w.Resources = nil
	if _, err := analyze(w); err == nil {
		t.Fatal("invalid workload should fail")
	}
}

// oracleAnalyze is the static test as it was written before it read the
// compiled problem: each subtask's latency box worked out by hand from the
// workload, [LatencyFor(B), min(C, LatencyFor(MinShare))], without the
// compiler's clamp of a degenerate box. degenerate reports whether any box
// had its upper end below its lower one.
func oracleAnalyze(w *workload.Workload) (rep *SchedulabilityReport, degenerate bool, err error) {
	if err := w.Validate(); err != nil {
		return nil, false, err
	}
	rep = &SchedulabilityReport{ResourceFloor: make(map[string]float64, len(w.Resources))}
	for _, t := range w.Tasks {
		paths, err := t.Paths()
		if err != nil {
			return nil, false, err
		}
		minLat := make([]float64, len(t.Subtasks))
		maxLat := make([]float64, len(t.Subtasks))
		for si, s := range t.Subtasks {
			r, _ := w.ResourceByID(s.Resource)
			fn := share.WCETLag{ExecMs: s.ExecMs, LagMs: r.LagMs}
			minLat[si] = fn.LatencyFor(r.Availability)
			maxLat[si] = t.CriticalMs
			if s.MinShare > 0 {
				if cap := fn.LatencyFor(s.MinShare); cap < maxLat[si] {
					maxLat[si] = cap
				}
			}
			degenerate = degenerate || maxLat[si] < minLat[si]
		}
		for pi, p := range paths {
			sum := 0.0
			for _, si := range p {
				sum += minLat[si]
			}
			if sum > t.CriticalMs {
				rep.PathViolations = append(rep.PathViolations, fmt.Sprintf("%s/path%d", t.Name, pi))
			}
		}
		for si, s := range t.Subtasks {
			r, _ := w.ResourceByID(s.Resource)
			fn := share.WCETLag{ExecMs: s.ExecMs, LagMs: r.LagMs}
			floor := fn.Share(maxLat[si])
			if s.MinShare > floor {
				floor = s.MinShare
			}
			rep.ResourceFloor[r.ID] += floor
		}
	}
	for _, r := range w.Resources {
		if rep.ResourceFloor[r.ID] > r.Availability+1e-9 {
			rep.ResourceViolations = append(rep.ResourceViolations, r.ID)
		}
	}
	return rep, degenerate, nil
}

// staticInstance is generated instance seed of the static-test oracle
// sweep: a Random workload around the edge of feasibility — slack 0.8–5,
// availability 0.5–1 — with a minimum share of up to 0.7 on about a sixth of
// its subtasks, some of them above their resource's availability.
func staticInstance(t *testing.T, seed int64) *workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultRandomConfig(seed)
	cfg.NumTasks = 2 + rng.Intn(6)
	cfg.ChainOnly = seed%3 == 0
	cfg.SlackFactor = 0.8 + 4.2*rng.Float64()
	cfg.Availability = 0.5 + 0.5*rng.Float64()
	w, err := workload.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		for si := range tk.Subtasks {
			if rng.Intn(6) == 0 {
				tk.Subtasks[si].MinShare = 0.7 * rng.Float64()
			}
		}
	}
	return w
}

// TestStaticTestMatchesOracle holds the static test on the compiled boxes
// to the hand-worked one over 320 generated instances: the verdict is the
// same on every one, and the violation lists and floors are the same
// whenever no box is degenerate. A degenerate box (its critical time or
// minimum share below what the whole resource gives) is clamped by the
// compiler to [latMin, latMin], so its floor reads B (or its MinShare) where
// the oracle's reads more; the path through it or its MinShare still
// refuses the instance.
func TestStaticTestMatchesOracle(t *testing.T) {
	var feasible, infeasible, degenerates int
	for seed := int64(0); seed < 320; seed++ {
		w := staticInstance(t, seed)
		want, degenerate, err := oracleAnalyze(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := analyze(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Feasible() != want.Feasible() {
			t.Fatalf("seed %d: verdict %v, oracle %v:\n got %v\nwant %v", seed, got.Feasible(), want.Feasible(), got, want)
		}
		if got.Feasible() {
			feasible++
		} else {
			infeasible++
		}
		if degenerate {
			degenerates++
			continue
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d:\n got %v\nwant %v", seed, got, want)
		}
		if len(got.ResourceFloor) != len(want.ResourceFloor) {
			t.Fatalf("seed %d: %d floors, oracle %d", seed, len(got.ResourceFloor), len(want.ResourceFloor))
		}
		for id, f := range want.ResourceFloor {
			if g, ok := got.ResourceFloor[id]; !ok || math.Abs(g-f) > 1e-12 {
				t.Fatalf("seed %d: %s floor %v, oracle %v", seed, id, g, f)
			}
		}
	}
	t.Logf("%d feasible, %d infeasible, %d with a degenerate box", feasible, infeasible, degenerates)
	if min(feasible, infeasible, degenerates) < 50 {
		t.Fatalf("the sweep must exercise every case: %d feasible, %d infeasible, %d degenerate", feasible, infeasible, degenerates)
	}
}

// loneWorkload is Base plus a resource "lone" of availability 0.5 that
// only task "lone" uses, with one subtask of minimum share minShare and
// critical time criticalMs.
func loneWorkload(minShare, criticalMs float64) *workload.Workload {
	w := workload.Base()
	w.Resources = append(w.Resources, share.Resource{ID: "lone", Kind: share.CPU, Availability: 0.5, LagMs: 1})
	tk := task.New("lone", criticalMs)
	tk.AddSubtask(task.Subtask{Name: "only", Resource: "lone", ExecMs: 4, MinShare: minShare})
	w.Tasks = append(w.Tasks, tk)
	w.Curves["lone"] = utility.Linear{K: 2, CMs: criticalMs}
	return w
}

// A lone subtask whose minimum share exceeds its resource's availability
// has a degenerate box, which the compiler clamps to [latMin, latMin]: read
// through the clamp its floor would be B and pass. The floor is read as
// max(MinShare, share at latMax), so the static test refuses it, as the
// oracle does.
func TestStaticTestRefusesLoneMinShareAboveAvailability(t *testing.T) {
	w := loneWorkload(0.8, 1000)
	rep, err := analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	want, degenerate, err := oracleAnalyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if !degenerate || rep.Feasible() || !slices.Equal(rep.ResourceViolations, []string{"lone"}) || len(rep.PathViolations) != 0 {
		t.Fatalf("degenerate %v, report %v; want only lone refused", degenerate, rep)
	}
	if rep.String() != want.String() || rep.ResourceFloor["lone"] != 0.8 {
		t.Fatalf("report %v (lone floor %v), oracle %v", rep, rep.ResourceFloor["lone"], want)
	}
}

// A critical time below what the whole resource gives is a degenerate box
// too: the verdict stays, the path test refuses it, and only its resource's
// floor and listing differ from the oracle's (B, not the share at C).
func TestStaticTestDegenerateBoxKeepsVerdict(t *testing.T) {
	w := loneWorkload(0, 8) // latMin = (4+1)/0.5 = 10 > 8
	rep, err := analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	want, degenerate, err := oracleAnalyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if !degenerate || rep.Feasible() != want.Feasible() || rep.Feasible() {
		t.Fatalf("degenerate %v, verdict %v, oracle %v", degenerate, rep.Feasible(), want.Feasible())
	}
	if !slices.Equal(rep.PathViolations, []string{"lone/path0"}) || !slices.Equal(rep.PathViolations, want.PathViolations) {
		t.Fatalf("path violations %v, oracle %v; want lone/path0", rep.PathViolations, want.PathViolations)
	}
	if rep.ResourceFloor["lone"] != 0.5 || want.ResourceFloor["lone"] != 5.0/8 {
		t.Fatalf("lone floor %v, oracle %v; want B = 0.5 and 5/8", rep.ResourceFloor["lone"], want.ResourceFloor["lone"])
	}
	if len(rep.ResourceViolations) != 0 || !slices.Equal(want.ResourceViolations, []string{"lone"}) {
		t.Fatalf("resource violations %v, oracle %v", rep.ResourceViolations, want.ResourceViolations)
	}
}

// TestRayValues pins Engine.Ray on the instances the ray was sized on, and
// every infeasible row turns positive within 20 iterations.
func TestRayValues(t *testing.T) {
	random := func(seed int64, mixed bool, tasks, resources int) *workload.Workload {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.MixedCurves = mixed
		if tasks > 0 {
			cfg.NumTasks, cfg.NumResources = tasks, resources
		}
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	fig7, err := workload.Replicate(workload.Base(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		w          *workload.Workload
		solver     price.Solver
		infeasible bool
		want       map[int]float64 // iteration -> ray
	}{
		{"dist-tcp 32/16 seed 1", random(1, false, 32, 16), price.SolverNewton, true, map[int]float64{10: 1.01, 20: 1.11, 400: 1.33}},
		{"dist-tcp 32/16 seed 1", random(1, false, 32, 16), price.SolverGradient, true, map[int]float64{10: -1.74, 20: 1.22, 400: 1.25}},
		{"dist-tcp 32/16 seed 2", random(2, false, 32, 16), price.SolverNewton, true, map[int]float64{10: 0.53, 20: 0.58, 400: 0.69}},
		{"dist-tcp 32/16 seed 3", random(3, false, 32, 16), price.SolverNewton, true, map[int]float64{10: 1.23, 20: 1.30, 400: 1.60}},
		{"Fig. 7", fig7, price.SolverNewton, true, map[int]float64{5: 1.90, 10: 1.93, 20: 1.93, 400: 3.40}},
		{"Fig. 7", fig7, price.SolverGradient, true, map[int]float64{5: 1.35, 10: 2.58, 20: 3.55, 400: 2.88}},
		{"mixed seed 5", random(5, true, 0, 0), price.SolverGradient, false, map[int]float64{4000: -2.36}},
		{"mixed seed 9", random(9, true, 0, 0), price.SolverGradient, false, map[int]float64{4000: -3.54}},
		{"mixed seed 19", random(19, true, 0, 0), price.SolverGradient, false, map[int]float64{4000: -4.02}},
		{"mixed seed 5", random(5, true, 0, 0), price.SolverNewton, false, map[int]float64{4000: -2.50}},
		{"mixed seed 9", random(9, true, 0, 0), price.SolverNewton, false, map[int]float64{4000: -3.45}},
		{"mixed seed 19", random(19, true, 0, 0), price.SolverNewton, false, map[int]float64{4000: -4.10}},
	} {
		e, err := NewEngine(tc.w, Config{PriceSolver: tc.solver, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		last := 0
		for it := range tc.want {
			last = max(last, it)
		}
		positive := -1
		for it := 0; it <= last; it++ {
			if it > 0 {
				e.Step()
			}
			ray := e.Ray()
			if ray > 0 && positive < 0 {
				positive = it
			}
			if want, ok := tc.want[it]; ok && math.Abs(ray-want) > 0.01 {
				t.Errorf("%s/%s: ray at iteration %d = %.4f, want %.2f", tc.name, tc.solver, it, ray, want)
			}
		}
		e.Close()
		switch {
		case tc.infeasible && (positive < 0 || positive > 20):
			t.Errorf("%s/%s: ray first positive at iteration %d, want within 20", tc.name, tc.solver, positive)
		case !tc.infeasible && positive >= 0:
			t.Errorf("%s/%s: feasible instance's ray positive at iteration %d", tc.name, tc.solver, positive)
		}
	}
}

// TestRayNeverPositiveOnFeasibleInstances: a positive ray is a proof of
// infeasibility, so no iterate of a feasible instance may show one — linear
// seeds 0–59 (300 iterations each), Base and Prototype until they certify,
// and the feasible mixed seeds 5, 9 and 19, which the gradient never
// certifies (4 000 iterations), under both solvers.
func TestRayNeverPositiveOnFeasibleInstances(t *testing.T) {
	type instance struct {
		name  string
		w     *workload.Workload
		iters int
	}
	instances := []instance{{"base", workload.Base(), 4000}, {"prototype", workload.Prototype(), 4000}}
	for seed := int64(0); seed < 60; seed++ {
		w, err := workload.Random(workload.DefaultRandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{fmt.Sprintf("linear seed %d", seed), w, 300})
	}
	for _, seed := range []int64{5, 9, 19} {
		cfg := workload.DefaultRandomConfig(seed)
		cfg.MixedCurves = true
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{fmt.Sprintf("mixed seed %d", seed), w, 4000})
	}
	for _, in := range instances {
		for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
			e, err := NewEngine(in.w, Config{PriceSolver: solver, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it <= in.iters; it++ {
				if it > 0 {
					e.Step()
				}
				if ray := e.Ray(); ray > 0 {
					t.Errorf("%s/%s: ray %.4g at iteration %d", in.name, solver, ray, it)
					break
				}
				if strings.HasPrefix(in.name, "linear") {
					continue
				}
				if _, ok := e.Certify(StopKKTTol, StopTol); ok {
					break
				}
			}
			e.Close()
		}
	}
}

package core

import (
	"math"
	"testing"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// singleSubtaskWorkload: one task, one subtask, one resource. The optimum is
// analytic: utility decreases with latency, so the subtask takes the whole
// availability: lat* = (c+l)/B.
func singleSubtaskWorkload() *workload.Workload {
	t := task.NewBuilder("t", 100).Subtask("s", "r0", 3).MustBuild()
	return &workload.Workload{
		Name:      "single",
		Tasks:     []*task.Task{t},
		Resources: []share.Resource{{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1}},
		Curves:    map[string]utility.Curve{"t": utility.Linear{K: 2, CMs: 100}},
	}
}

func TestEngineSingleSubtaskOptimum(t *testing.T) {
	e, err := NewEngine(singleSubtaskWorkload(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(2000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge: %v", snap)
	}
	// lat* = (3+1)/1 = 4ms; share = 1.
	if got := snap.LatMs[0][0]; math.Abs(got-4) > 0.01 {
		t.Errorf("lat = %v, want 4", got)
	}
	if got := snap.ShareSums[0]; math.Abs(got-1) > 0.01 {
		t.Errorf("share sum = %v, want 1", got)
	}
}

// twoTaskOneResource: two single-subtask tasks with (c+l) = 4 and 9 share a
// unit resource under linear utility. KKT gives lat_i = sqrt(k_i)·Σ_j
// sqrt(k_j)/B: lat1 = 10, lat2 = 15, mu* = 25.
func twoTaskOneResource() *workload.Workload {
	t1 := task.NewBuilder("t1", 1000).Subtask("s1", "r0", 3).MustBuild()
	t2 := task.NewBuilder("t2", 1000).Subtask("s2", "r0", 8).MustBuild()
	return &workload.Workload{
		Name:      "two",
		Tasks:     []*task.Task{t1, t2},
		Resources: []share.Resource{{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1}},
		Curves: map[string]utility.Curve{
			"t1": utility.Linear{K: 2, CMs: 1000},
			"t2": utility.Linear{K: 2, CMs: 1000},
		},
	}
}

func TestEngineTwoTaskAnalyticOptimum(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		e, err := NewEngine(twoTaskOneResource(), Config{Step: StepPolicy{Adaptive: adaptive, Gamma: 1}})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6)
		if !ok {
			t.Fatalf("adaptive=%v: did not converge: %v", adaptive, snap)
		}
		if got := snap.LatMs[0][0]; math.Abs(got-10) > 0.1 {
			t.Errorf("adaptive=%v: lat1 = %v, want 10", adaptive, got)
		}
		if got := snap.LatMs[1][0]; math.Abs(got-15) > 0.15 {
			t.Errorf("adaptive=%v: lat2 = %v, want 15", adaptive, got)
		}
		if got := snap.Mu[0]; math.Abs(got-25) > 0.5 {
			t.Errorf("adaptive=%v: mu = %v, want 25", adaptive, got)
		}
		// KKT residuals at the optimum are tiny.
		for _, r := range e.KKTResidualsInto(nil) {
			if r > 1e-2 {
				t.Errorf("adaptive=%v: KKT residual %v too large", adaptive, r)
			}
		}
	}
}

// The prototype workload's model-based optimum is analytic (DESIGN.md /
// Section 6.4 analysis): the fast tasks' critical time binds at per-subtask
// latency 35ms → share 10/35 ≈ 0.2857; the slow tasks absorb the remaining
// availability: 0.45 − 0.2857 ≈ 0.1643 each.
func TestEnginePrototypeModelOptimum(t *testing.T) {
	e, err := NewEngine(workload.Prototype(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(6000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge: %v", snap)
	}
	fastShare, err := e.ShareByName("task1", "T11")
	if err != nil {
		t.Fatal(err)
	}
	slowShare, err := e.ShareByName("task3", "T31")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fastShare-10.0/35) > 0.01 {
		t.Errorf("fast share = %.4f, want %.4f", fastShare, 10.0/35)
	}
	if math.Abs(slowShare-(0.45-10.0/35)) > 0.01 {
		t.Errorf("slow share = %.4f, want %.4f", slowShare, 0.45-10.0/35)
	}
	// Fast critical path binds at 105ms.
	if cp := snap.CriticalPathMs[0]; math.Abs(cp-105) > 1 {
		t.Errorf("fast critical path = %v, want ≈105", cp)
	}
	if !snap.Feasible(1e-3) {
		t.Errorf("solution infeasible: %v", snap)
	}
}

// After installing a negative model error on the fast subtasks (the model
// over-predicted latency), the optimizer drops the fast shares to the
// rate-derived minimum 0.2 and gives the slow tasks 0.25 — the Figure 8
// post-correction allocation.
func TestEnginePrototypeErrorCorrectionShift(t *testing.T) {
	e, err := NewEngine(workload.Prototype(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3000, nil)
	for _, tn := range []string{"task1", "task2"} {
		for _, sn := range []string{"T11", "T12", "T13", "T21", "T22", "T23"} {
			if err := e.SetErrorMs(tn, sn, -20); err != nil {
				// Subtask belongs to the other task; skip.
				continue
			}
		}
	}
	snap, ok := e.RunUntilKKT(6000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not re-converge: %v", snap)
	}
	fastShare, _ := e.ShareByName("task1", "T11")
	slowShare, _ := e.ShareByName("task3", "T31")
	if math.Abs(fastShare-0.2) > 0.005 {
		t.Errorf("fast share after correction = %.4f, want 0.20", fastShare)
	}
	if math.Abs(slowShare-0.25) > 0.005 {
		t.Errorf("slow share after correction = %.4f, want 0.25", slowShare)
	}
}

// Base workload: converges to the Table 1 solution (see DESIGN.md for the
// reconstruction): every resource saturated, every critical path within 1%
// of its critical time, subtask latencies near the published values.
func TestEngineBaseWorkloadMatchesTable1(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge: %v", snap)
	}
	for ri, sum := range snap.ShareSums {
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("resource %d share sum = %.4f, want ≈1", ri, sum)
		}
	}
	for ti, cp := range snap.CriticalPathMs {
		crit := snap.CriticalTimeMs[ti]
		if cp > crit*1.001 {
			t.Errorf("task %d critical path %.2f exceeds critical time %.1f", ti, cp, crit)
		}
		if cp < crit*0.98 {
			t.Errorf("task %d critical path %.2f more than 2%% below critical time %.1f (paper: <1%%)", ti, cp, crit)
		}
	}
	// Per-subtask latencies close to the published Table 1 values.
	ref := workload.Table1LatenciesMs()
	w := workload.Base()
	var maxRel, sumRel float64
	var count int
	for ti, tk := range w.Tasks {
		for si, s := range tk.Subtasks {
			want := ref[tk.Name][s.Name]
			got := snap.LatMs[ti][si]
			rel := math.Abs(got-want) / want
			sumRel += rel
			count++
			if rel > maxRel {
				maxRel = rel
			}
			if rel > 0.10 {
				t.Errorf("%s.%s latency = %.2f, published %.1f (%.1f%% off)", tk.Name, s.Name, got, want, rel*100)
			}
		}
	}
	if mean := sumRel / float64(count); mean > 0.05 {
		t.Errorf("mean relative latency error %.3f > 5%%", mean)
	}
	t.Logf("Table 1 comparison: mean rel err %.2f%%, max %.2f%%, utility %.2f",
		sumRel/float64(count)*100, maxRel*100, snap.Utility)
}

// Section 5.4: replicating the base tasks without scaling critical times
// makes the workload unschedulable; LLA must NOT converge to a feasible
// point and the critical paths overshoot their constraints severely.
func TestEngineDetectsUnschedulableWorkload(t *testing.T) {
	w6, err := workload.Replicate(workload.Base(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(1500, 1e-9, 3, 1e-6)
	if ok && snap.Feasible(1e-3) {
		t.Fatalf("unschedulable workload reported as converged feasible: %v", snap)
	}
	// The critical-path overshoot is large (paper reports 1.75–2.41x).
	worst := 0.0
	for ti, cp := range snap.CriticalPathMs {
		ratio := cp / snap.CriticalTimeMs[ti]
		if ratio > worst {
			worst = ratio
		}
	}
	if worst < 1.3 {
		t.Errorf("worst critical-path ratio %.2f, want clearly infeasible (>1.3)", worst)
	}
}

// Scaled workloads with relaxed critical times stay schedulable and converge
// (Section 5.3), with utility growing with the task count.
func TestEngineScalabilityConverges(t *testing.T) {
	var prevUtility float64
	for _, factor := range []int{1, 2, 4} {
		w, err := workload.Replicate(workload.Base(), factor, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
		if !ok {
			t.Fatalf("factor %d: did not converge: %v", factor, snap)
		}
		if snap.Utility <= prevUtility {
			t.Errorf("factor %d: utility %.2f did not grow (prev %.2f)", factor, snap.Utility, prevUtility)
		}
		prevUtility = snap.Utility
	}
}

// Resource variation: dropping availability mid-run re-converges to a new
// feasible allocation with the reduced capacity respected.
func TestEngineAdaptsToAvailabilityDrop(t *testing.T) {
	e, err := NewEngine(twoTaskOneResource(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.RunUntilKKT(5000, 1e-9, 3, 1e-6); !ok {
		t.Fatal("initial convergence failed")
	}
	if err := e.SetAvailability("r0", 0.5); err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not re-converge after availability drop: %v", snap)
	}
	if snap.ShareSums[0] > 0.501 {
		t.Errorf("share sum %.4f exceeds new availability 0.5", snap.ShareSums[0])
	}
	// Optimum scales: lat_i = sqrt(k_i)·Σsqrt(k_j)/B doubles.
	if got := snap.LatMs[0][0]; math.Abs(got-20) > 0.2 {
		t.Errorf("lat1 after drop = %v, want 20", got)
	}
	if err := e.SetAvailability("r0", 1.5); err == nil {
		t.Error("invalid availability should fail")
	}
	if err := e.SetAvailability("zz", 0.5); err == nil {
		t.Error("unknown resource should fail")
	}
}

// Workload variation: raising a subtask's minimum share floor forces the
// optimizer to keep at least that share allocated.
func TestEngineAdaptsToMinShareChange(t *testing.T) {
	e, err := NewEngine(twoTaskOneResource(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3000, nil)
	if err := e.SetMinShare("t1", "s1", 0.6); err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not re-converge: %v", snap)
	}
	s1, _ := e.ShareByName("t1", "s1")
	if s1 < 0.6-1e-6 {
		t.Errorf("share = %v, want >= 0.6 (min-share floor)", s1)
	}
	if err := e.SetMinShare("t1", "s1", 2); err == nil {
		t.Error("invalid min share should fail")
	}
	if err := e.SetMinShare("t1", "zz", 0.1); err == nil {
		t.Error("unknown subtask should fail")
	}
	if err := e.SetMinShare("zz", "s1", 0.1); err == nil {
		t.Error("unknown task should fail")
	}
}

// Nonlinear (quadratic) curves exercise the controller's inner fixed point;
// the converged point must satisfy the KKT stationarity conditions.
func TestEngineNonlinearCurveKKT(t *testing.T) {
	w := twoTaskOneResource()
	w.Curves["t1"] = utility.Quadratic{A: 1000, B: 0.05}
	w.Curves["t2"] = utility.Quadratic{A: 1000, B: 0.01}
	e, err := NewEngine(w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.RunUntilKKT(10000, 1e-9, 3, 1e-6)
	if !ok {
		t.Fatalf("did not converge: %v", snap)
	}
	for _, r := range e.KKTResidualsInto(nil) {
		if r > 2e-2 {
			t.Errorf("KKT residual %v too large for nonlinear curve", r)
		}
	}
	if !snap.Feasible(1e-3) {
		t.Errorf("infeasible: %v", snap)
	}
}

// The sum and path-weighted variants both converge on the base workload
// (Section 5.2 reports no convergence difference).
func TestEngineWeightVariantsConverge(t *testing.T) {
	for _, mode := range []task.WeightMode{task.WeightSum, task.WeightPathNormalized, task.WeightPathRaw} {
		e, err := NewEngine(workload.Base(), Config{WeightMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(8000, 1e-9, 3, 1e-6)
		if !ok {
			t.Errorf("mode %v: did not converge: %v", mode, snap)
		}
		if !snap.Feasible(1e-2) {
			t.Errorf("mode %v: infeasible: %v", mode, snap)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := NewEngine(singleSubtaskWorkload(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if e.Iteration() != 1 {
		t.Errorf("Iteration = %d, want 1", e.Iteration())
	}
	if e.Problem() == nil || len(e.Controller(0).LatMs) != 1 {
		t.Error("accessors returned nothing")
	}
	if _, err := e.LatencyByName("t", "s"); err != nil {
		t.Errorf("LatencyByName: %v", err)
	}
	if _, err := e.LatencyByName("t", "zz"); err == nil {
		t.Error("unknown subtask should fail")
	}
	if _, err := e.ShareByName("zz", "s"); err == nil {
		t.Error("unknown task should fail")
	}
	if s := e.Snapshot().String(); s == "" {
		t.Error("empty snapshot string")
	}
	if err := e.SetErrorMs("t", "zz", 1); err == nil {
		t.Error("unknown subtask should fail")
	}
}

func TestEngineRejectsInvalidWorkload(t *testing.T) {
	w := singleSubtaskWorkload()
	w.Tasks = nil
	if _, err := NewEngine(w, Config{}); err == nil {
		t.Fatal("invalid workload should fail to compile")
	}
}

func TestCompileIndexes(t *testing.T) {
	p, err := Compile(workload.Base(), task.WeightPathNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSubtasks() != 21 {
		t.Errorf("NumSubtasks = %d, want 21", p.NumSubtasks())
	}
	if p.Workload() == nil {
		t.Error("Workload() nil")
	}
	// The CSR paths are the tasks' own, and PathsThrough is their transpose.
	for ti, tk := range p.Workload().Tasks {
		paths, _ := tk.Paths()
		if p.NumPaths(ti) != len(paths) {
			t.Fatalf("task %s: %d compiled paths, task has %d", tk.Name, p.NumPaths(ti), len(paths))
		}
		through := 0
		for pi, want := range paths {
			got := p.Path(ti, pi)
			if len(got) != len(want) {
				t.Fatalf("task %s path %d: %v, want %v", tk.Name, pi, got, want)
			}
			for i, s := range want {
				if int(got[i]) != s {
					t.Fatalf("task %s path %d: %v, want %v", tk.Name, pi, got, want)
				}
			}
			through += len(want)
		}
		for si := range tk.Subtasks {
			pis := p.PathsThrough(ti, si)
			through -= len(pis)
			for _, pi := range pis {
				found := false
				for _, s := range paths[pi] {
					if s == si {
						found = true
					}
				}
				if !found {
					t.Errorf("task %s: PathsThrough(%d) lists path %d which misses the subtask", tk.Name, si, pi)
				}
			}
		}
		if through != 0 {
			t.Errorf("task %s: PathsThrough is off by %d entries", tk.Name, through)
		}
		// Bounds sane.
		latMin, latMax := p.row(ti, p.latMin), p.row(ti, p.latMax)
		for si := range latMin {
			if latMin[si] <= 0 || latMax[si] < latMin[si] {
				t.Errorf("task %s subtask %d: bad bounds [%v,%v]", tk.Name, si, latMin[si], latMax[si])
			}
		}
	}
}

// Latencies always stay within their admissible bounds during iteration.
func TestEngineLatenciesRespectBounds(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Step: StepPolicy{Adaptive: false, Gamma: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Step()
		for ti := range e.p.NumTasks() {
			latMin, latMax := e.p.row(ti, e.p.latMin), e.p.row(ti, e.p.latMax)
			for si, lat := range e.Controller(ti).LatMs {
				if lat < latMin[si]-1e-9 || lat > latMax[si]+1e-9 {
					t.Fatalf("iter %d: task %d subtask %d latency %v outside [%v,%v]",
						i, ti, si, lat, latMin[si], latMax[si])
				}
			}
		}
	}
}

package admit

import (
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// testCluster builds a small running system: three unit-availability CPUs
// and one converged resident chain task.
func testCluster(t *testing.T, workers int) *core.Engine {
	t.Helper()
	resident := task.NewBuilder("resident", 150).
		Trigger(task.Periodic(100)).
		Subtask("resident-s0", "r0", 4).
		Subtask("resident-s1", "r1", 3).
		Subtask("resident-s2", "r2", 4).
		Chain("resident-s0", "resident-s1", "resident-s2").
		MustBuild()
	w := &workload.Workload{
		Name:  "admit-test",
		Tasks: []*task.Task{resident},
		Resources: []share.Resource{
			{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r1", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r2", Kind: share.CPU, Availability: 1, LagMs: 1},
		},
		Curves: map[string]utility.Curve{"resident": utility.Linear{K: 2, CMs: 150}},
	}
	eng, err := core.NewEngine(w, core.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	eng.RunUntilKKT(3000, 1e-9, 3, 1e-6)
	return eng
}

// chainCandidate stamps a chain instance over the given resources.
func chainCandidate(t *testing.T, name string, criticalMs float64, execMs []float64, resources []string) (*task.Task, utility.Curve) {
	t.Helper()
	tpl := workload.ChurnTemplate{Name: name, CriticalMs: criticalMs, StageExecMs: execMs, UtilityK: 2}
	tk, curve, err := tpl.Instantiate(name, resources)
	if err != nil {
		t.Fatal(err)
	}
	return tk, curve
}

func TestOfferGates(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{})

	// A loose pipeline is admitted and enacted.
	ok, curve := chainCandidate(t, "loose", 300, []float64{5, 4}, []string{"r0", "r1"})
	d, err := ctrl.Offer(ok, curve)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted || d.Stage != StageAdmit {
		t.Fatalf("loose candidate not admitted: %+v", d)
	}
	if d.TrialIters <= 0 || d.ReconvergeIters <= 0 {
		t.Fatalf("missing iteration accounting: %+v", d)
	}
	if eng.Problem().Workload().TaskByName("loose") == nil {
		t.Fatal("admitted task not enacted on the live engine")
	}

	// A statically impossible deadline is rejected by the static floors.
	imp, curve := chainCandidate(t, "impossible", 8, []float64{5, 5}, []string{"r0", "r1"})
	d, err = ctrl.Offer(imp, curve)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted || d.Stage != StageStatic {
		t.Fatalf("impossible candidate: %+v", d)
	}
	if eng.Problem().Workload().TaskByName("impossible") != nil {
		t.Fatal("rejected task leaked into the live engine")
	}

	// Re-offering the same name immediately hits quarantine.
	d, err = ctrl.Offer(imp, curve)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted || d.Stage != StageQuarantine {
		t.Fatalf("expected quarantine, got %+v", d)
	}

	// Departure removes and re-converges; an unknown departure is a no-op.
	d, err = ctrl.Remove("loose")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted || d.Kind != KindDeparture {
		t.Fatalf("departure: %+v", d)
	}
	if eng.Problem().Workload().TaskByName("loose") != nil {
		t.Fatal("departed task still resident")
	}
	d, err = ctrl.Remove("never-admitted")
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("unknown departure should be a no-op: %+v", d)
	}
	if _, err := ctrl.Remove("resident"); err == nil {
		t.Fatal("removing the last resident task should fail")
	}
}

// TestOfferPriceStageCostBenefit: with a and b resident, a tight pipeline
// passes the static floors but its predicted congestion cost at the live
// prices exceeds its utility gain, so the price screen rejects it.
func TestOfferPriceStageCostBenefit(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{})
	for _, o := range []struct {
		name     string
		critical float64
		exec     []float64
	}{
		{"a", 300, []float64{5, 4}},
		{"b", 200, []float64{4, 4, 4}},
	} {
		tk, curve := chainCandidate(t, o.name, o.critical, o.exec, []string{"r0", "r1", "r2"}[:len(o.exec)])
		if d, err := ctrl.Offer(tk, curve); err != nil || !d.Admitted {
			t.Fatalf("%s: %+v, %v", o.name, d, err)
		}
	}
	tight, curve := chainCandidate(t, "tight", 24, []float64{6, 6}, []string{"r0", "r1"})
	d, err := ctrl.Offer(tight, curve)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted || d.Stage != StagePrice {
		t.Fatalf("expected a price-stage rejection, got %+v", d)
	}
	if !regexp.MustCompile(`^congestion cost \S+ exceeds `).MatchString(d.Reason) {
		t.Errorf("reason %q is not the cost-benefit test", d.Reason)
	}
}

func TestAdmitAllSkipsGates(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{AdmitAll: true})
	// Statically impossible, but the baseline enacts it anyway.
	imp, curve := chainCandidate(t, "impossible", 8, []float64{5, 5}, []string{"r0", "r1"})
	d, err := ctrl.Offer(imp, curve)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted || d.TrialIters != 0 {
		t.Fatalf("admit-all should enact without a trial: %+v", d)
	}
	if eng.Problem().Workload().TaskByName("impossible") == nil {
		t.Fatal("admit-all did not enact the task")
	}
}

// TestOfferRefusesMalformedInputs: a missing task is an error on both offer
// paths, never a panic; a missing curve or one with a non-finite value is a
// static rejection under the gates and an error under admit-all. Nothing
// reaches the live engine.
func TestOfferRefusesMalformedInputs(t *testing.T) {
	tk, curve := chainCandidate(t, "bad", 300, []float64{5, 4}, []string{"r0", "r1"})
	nanCurve := utility.Linear{K: math.NaN(), CMs: 300}
	for _, tc := range []struct {
		name   string
		offer  func(*Controller) (Decision, error)
		reason string // a gated rejection's; "" when the gated offer errs too
	}{
		{"nil task", func(c *Controller) (Decision, error) { return c.Offer(nil, curve) }, ""},
		{"nil placed task", func(c *Controller) (Decision, error) { return c.OfferPlaced(Candidate{Curve: curve}) }, ""},
		{"nil curve", func(c *Controller) (Decision, error) { return c.Offer(tk, nil) }, "no utility curve"},
		{"NaN curve value", func(c *Controller) (Decision, error) { return c.Offer(tk, nanCurve) }, "not finite"},
	} {
		for _, all := range []bool{false, true} {
			eng := testCluster(t, 1)
			ctrl := New(eng, Config{AdmitAll: all})
			ctrl.UsePlacer(NewPlacer())
			d, err := tc.offer(ctrl)
			if tc.reason == "" || all {
				if err == nil {
					t.Errorf("%s (admit-all %v): no error, decision %+v", tc.name, all, d)
				}
			} else if err != nil || d.Admitted || d.Stage != StageStatic || !strings.Contains(d.Reason, tc.reason) {
				t.Errorf("%s: %+v, %v; want a static rejection naming %q", tc.name, d, err, tc.reason)
			}
			if n := eng.Problem().NumTasks(); n != 1 {
				t.Errorf("%s (admit-all %v): %d resident tasks, want 1", tc.name, all, n)
			}
		}
	}
}

// TestQuarantineBackoffCap drives repeated rejections of one name and
// checks the evaluated-retry schedule follows capped exponential backoff.
func TestQuarantineBackoffCap(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{})
	imp, curve := chainCandidate(t, "impossible", 8, []float64{5, 5}, []string{"r0", "r1"})

	var gaps []int
	lastEval := 0
	for i := 0; i < 120; i++ {
		d, err := ctrl.Offer(imp, curve)
		if err != nil {
			t.Fatal(err)
		}
		if d.Admitted {
			t.Fatalf("impossible candidate admitted: %+v", d)
		}
		if d.Stage != StageQuarantine {
			if lastEval != 0 {
				gaps = append(gaps, d.Event-lastEval)
			}
			lastEval = d.Event
		}
	}
	// until = event + backoff and retry fires at event == until, so the gap
	// between evaluated retries equals the backoff: doubling from
	// backoffBase, then capped at backoffCap.
	want := []int{2, 4, 8, 16, 32, 32}
	if len(gaps) < len(want) {
		t.Fatalf("too few evaluated retries: gaps %v", gaps)
	}
	for i, g := range want {
		if gaps[i] != g {
			t.Fatalf("retry gap %d = %d, want %d (gaps %v)", i, gaps[i], g, gaps)
		}
	}
	for i, g := range gaps {
		if g > backoffCap {
			t.Fatalf("gap %d = %d exceeds cap %d", i, g, backoffCap)
		}
	}
}

// TestCountersMatchDecisionLog asserts the lla_admit_* metrics agree
// exactly with the controller's returned decision log.
func TestCountersMatchDecisionLog(t *testing.T) {
	eng := testCluster(t, 1)
	ctrl := New(eng, Config{})
	ctrl.UsePlacer(NewPlacer())
	ctrl.Observe(&obs.Observer{Metrics: obs.NewRegistry()})

	offers := []struct {
		name     string
		critical float64
		exec     []float64
	}{
		{"a", 300, []float64{5, 4}},
		{"b", 200, []float64{4, 4, 4}},
		{"impossible", 8, []float64{5, 5}},
		{"impossible", 8, []float64{5, 5}}, // quarantined
		{"tight", 24, []float64{6, 6}},
		{"c", 250, []float64{3, 3}},
	}
	for _, o := range offers {
		tk, curve := chainCandidate(t, o.name, o.critical, o.exec, []string{"r0", "r1", "r2"}[:len(o.exec)])
		if _, err := ctrl.Offer(tk, curve); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctrl.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Remove("ghost"); err != nil {
		t.Fatal(err)
	}

	var considered, admitted, depart int64
	rejected := map[string]int64{}
	for _, d := range ctrl.Log() {
		switch d.Kind {
		case KindArrival:
			considered++
			if d.Admitted {
				admitted++
			} else {
				rejected[d.Stage]++
			}
		case KindDeparture:
			if d.Admitted {
				depart++
			}
		}
	}
	check := func(name string, c *obs.Counter, want int64) {
		t.Helper()
		if c.Value() != want {
			t.Errorf("%s = %d, want %d (log)", name, c.Value(), want)
		}
	}
	m := ctrl.m
	check("considered", m.Considered, considered)
	check("admitted", m.Admitted, admitted)
	check("rejected{static}", m.RejectedStatic, rejected[StageStatic]+rejected[StagePlace])
	check("rejected{price}", m.RejectedPrice, rejected[StagePrice])
	check("rejected{trial}", m.RejectedTrial, rejected[StageTrial])
	check("rejected{quarantine}", m.RejectedQuarantine, rejected[StageQuarantine])
	check("departures", m.Departures, depart)
	if got, want := m.Resident.Value(), float64(eng.Problem().NumTasks()); got != want {
		t.Errorf("resident gauge = %v, want %v", got, want)
	}
	if considered == 0 || admitted == 0 || rejected[StageQuarantine] == 0 {
		t.Fatalf("test did not exercise all paths: considered=%d admitted=%d rejected=%v", considered, admitted, rejected)
	}
}

// TestDecisionsDeterministicAcrossWorkers replays one seeded churn trace
// against controllers whose engines shard differently and requires
// identical decision logs.
func TestDecisionsDeterministicAcrossWorkers(t *testing.T) {
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Seed:               11,
		MeanInterarrivalMs: 30,
		MeanLifetimeMs:     120,
		HorizonMs:          900,
		Templates: []workload.ChurnTemplate{
			{Name: "web", CriticalMs: 60, StageExecMs: []float64{3, 2}, UtilityK: 2},
			{Name: "burst", CriticalMs: 22, StageExecMs: []float64{5, 4}, UtilityK: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) []Decision {
		eng := testCluster(t, workers)
		ctrl := New(eng, Config{TrialIters: 800})
		ctrl.UsePlacer(NewPlacer())
		for _, ev := range trace {
			tpl := []workload.ChurnTemplate{
				{Name: "web", CriticalMs: 60, StageExecMs: []float64{3, 2}, UtilityK: 2},
				{Name: "burst", CriticalMs: 22, StageExecMs: []float64{5, 4}, UtilityK: 2},
			}[ev.Template]
			if ev.Arrival {
				tk, curve, err := tpl.Instantiate(ev.Name, []string{"r0", "r1"})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ctrl.OfferPlaced(Candidate{Task: tk, Curve: curve}); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := ctrl.Remove(ev.Name); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := ctrl.MaybeRebalance(); err != nil {
				t.Fatal(err)
			}
		}
		return ctrl.Log()
	}

	serial := run(1)
	sharded := run(3)
	if !reflect.DeepEqual(serial, sharded) {
		for i := range serial {
			if i < len(sharded) && !reflect.DeepEqual(serial[i], sharded[i]) {
				t.Fatalf("decision %d differs:\n  workers=1: %+v\n  workers=3: %+v", i, serial[i], sharded[i])
			}
		}
		t.Fatalf("decision logs differ in length: %d vs %d", len(serial), len(sharded))
	}
	var admitted int
	for _, d := range serial {
		if d.Kind == KindArrival && d.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("trace admitted nothing; test is vacuous")
	}
}

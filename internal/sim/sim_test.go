package sim

import (
	"math"
	"math/rand"
	"testing"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// singleSubtaskWorkload: one task, one subtask of WCET 2ms, one resource of
// availability B, periodic releases every periodMs.
func singleSubtaskWorkload(b float64, periodMs float64) *workload.Workload {
	t := task.NewBuilder("t", 1000).
		Trigger(task.Periodic(periodMs)).
		Subtask("s", "r0", 2).
		MustBuild()
	return &workload.Workload{
		Name:      "single",
		Tasks:     []*task.Task{t},
		Resources: []share.Resource{{ID: "r0", Kind: share.CPU, Availability: b, LagMs: 1}},
		Curves:    map[string]utility.Curve{"t": utility.NegLatency{}},
	}
}

func TestClockOrdering(t *testing.T) {
	var c Clock
	var got []int
	c.At(5, func() { got = append(got, 2) })
	c.At(3, func() { got = append(got, 1) })
	c.At(5, func() { got = append(got, 3) }) // same time: FIFO
	c.RunUntil(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v", got)
	}
	if c.NowMs() != 10 {
		t.Errorf("NowMs = %v, want 10", c.NowMs())
	}
	if n := c.queue.Len(); n != 0 {
		t.Errorf("%d events pending, want 0", n)
	}
}

func TestClockRejectsPastEvents(t *testing.T) {
	var c Clock
	c.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.At(5, func() {})
}

func TestSourcePeriodic(t *testing.T) {
	src, err := NewSource(task.Periodic(10), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Next(0); got != 10 {
		t.Errorf("Next(0) = %v, want 10", got)
	}
	if got := src.Next(10); got != 20 {
		t.Errorf("Next(10) = %v, want 20", got)
	}
}

func TestSourcePoissonRate(t *testing.T) {
	src, err := NewSource(task.Poisson(10), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	now, n := 0.0, 0
	for now < 100000 {
		now = src.Next(now)
		n++
	}
	// Mean inter-arrival 10ms -> ~10000 arrivals over 100s.
	if n < 9000 || n < 1 || n > 11000 {
		t.Errorf("poisson arrivals = %d, want ≈10000", n)
	}
}

func TestSourceBurstyThinsArrivals(t *testing.T) {
	burstRng := rand.New(rand.NewSource(3))
	src, err := NewSource(task.Bursty(10, 200, 600), burstRng)
	if err != nil {
		t.Fatal(err)
	}
	now, n := 0.0, 0
	for now < 100000 {
		now = src.Next(now)
		n++
	}
	// Duty cycle 25%: ≈2500 arrivals; allow generous slack for phase noise.
	if n < 1500 || n > 4000 {
		t.Errorf("bursty arrivals = %d, want ≈2500", n)
	}
}

func TestSourceRequiresTrigger(t *testing.T) {
	if _, err := NewSource(task.Trigger{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero trigger should fail")
	}
}

// With the resource fully available and the subtask alone, work conservation
// means every job runs at full rate: latency == WCET, regardless of share.
func TestSimWorkConservingIsolatedLatency(t *testing.T) {
	for _, kind := range []SchedulerKind{GPS, Quantum} {
		s, err := New(singleSubtaskWorkload(1, 10), Config{Scheduler: kind, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetShares([][]float64{{0.3}}); err != nil {
			t.Fatal(err)
		}
		s.RunFor(1000)
		lat := s.SubtaskLatency(0, 0)
		if lat.Count() < 90 {
			t.Fatalf("%v: only %d samples", kind, lat.Count())
		}
		if got := lat.Quantile(0.5); math.Abs(got-2) > 0.01 {
			t.Errorf("%v: isolated median latency = %v, want 2 (WCET)", kind, got)
		}
	}
}

// With a background reservation soaking (1-B), a GPS-scheduled subtask at
// share sigma and an always-busy background runs at rate sigma/(sigma+1-B):
// B=0.5, sigma=0.5 -> rate 0.5 -> latency = 4ms.
func TestSimBackgroundReservationThrottles(t *testing.T) {
	s, err := New(singleSubtaskWorkload(0.5, 20), Config{Scheduler: GPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShares([][]float64{{0.5}}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2000)
	lat := s.SubtaskLatency(0, 0)
	if got := lat.Quantile(0.5); math.Abs(got-4) > 0.05 {
		t.Errorf("median latency = %v, want 4 (rate 0.5)", got)
	}
	// The same subtask with nothing reserved (B=1: no background flow).
	s2, err := New(singleSubtaskWorkload(1, 20), Config{Scheduler: GPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2.RunFor(2000)
	if got := s2.SubtaskLatency(0, 0).Quantile(0.5); math.Abs(got-2) > 0.05 {
		t.Errorf("median without background = %v, want 2", got)
	}
}

// End-to-end latency of a chain equals the sum of stage latencies; the task
// latency recorder must reflect precedence.
func TestSimChainPrecedence(t *testing.T) {
	tk := task.NewBuilder("chain", 1000).
		Trigger(task.Periodic(50)).
		Subtask("a", "r0", 3).
		Subtask("b", "r1", 5).
		Chain("a", "b").
		MustBuild()
	w := &workload.Workload{
		Name:  "chain",
		Tasks: []*task.Task{tk},
		Resources: []share.Resource{
			{ID: "r0", Kind: share.CPU, Availability: 1},
			{ID: "r1", Kind: share.Link, Availability: 1},
		},
		Curves: map[string]utility.Curve{"chain": utility.NegLatency{}},
	}
	s, err := New(w, Config{Scheduler: GPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5000)
	if got := s.TaskLatency(0).Quantile(0.5); math.Abs(got-8) > 0.05 {
		t.Errorf("chain latency = %v, want 8 (3+5, isolated)", got)
	}
	rel, comp := s.releasedSets[0], s.completedSets[0]
	if rel < 99 || comp < rel-1 {
		t.Errorf("released=%d completed=%d, want stable pipeline", rel, comp)
	}
}

// A fan-out/fan-in diamond: the end-to-end latency is root + max(branches) +
// leaf when resources are independent.
func TestSimDiamondPrecedence(t *testing.T) {
	tk := task.NewBuilder("diamond", 1000).
		Trigger(task.Periodic(100)).
		Subtask("a", "r0", 2).
		Subtask("b", "r1", 3).
		Subtask("c", "r2", 9).
		Subtask("d", "r3", 1).
		Edge("a", "b").Edge("a", "c").Edge("b", "d").Edge("c", "d").
		MustBuild()
	var res []share.Resource
	for _, id := range []string{"r0", "r1", "r2", "r3"} {
		res = append(res, share.Resource{ID: id, Kind: share.CPU, Availability: 1})
	}
	w := &workload.Workload{
		Name:      "diamond",
		Tasks:     []*task.Task{tk},
		Resources: res,
		Curves:    map[string]utility.Curve{"diamond": utility.NegLatency{}},
	}
	s, err := New(w, Config{Scheduler: GPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5000)
	// 2 + max(3, 9) + 1 = 12.
	if got := s.TaskLatency(0).Quantile(0.5); math.Abs(got-12) > 0.05 {
		t.Errorf("diamond latency = %v, want 12", got)
	}
}

// The prototype premise (Section 6.3/6.4): under contention at the assigned
// shares, the measured latency is well below the model's (c+l)/share
// prediction — the gap the online error correction discovers.
func TestSimPrototypeModelOverPredicts(t *testing.T) {
	w := workload.Prototype()
	s, err := New(w, Config{Scheduler: Quantum, QuantumMs: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Enact the model-based optimum: fast 0.2857, slow 0.1643.
	fast, slow := 10.0/35, 0.45-10.0/35
	shares := make([][]float64, len(w.Tasks))
	for ti, tk := range w.Tasks {
		v := fast
		if ti >= 2 {
			v = slow
		}
		for range tk.Subtasks {
			shares[ti] = append(shares[ti], v)
		}
	}
	if err := s.SetShares(shares); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2000)
	s.ResetStats()
	s.RunFor(20000)

	modelFast := (workload.FastExecMs + workload.PrototypeLagMs) / fast // 35ms
	measured := s.SubtaskLatency(0, 0).Quantile(0.95)
	if measured >= modelFast*0.8 {
		t.Errorf("fast p95 = %.1f, model predicts %.1f; expected clear over-prediction", measured, modelFast)
	}
	if measured <= workload.FastExecMs {
		t.Errorf("fast p95 = %.1f below WCET %v — impossible", measured, workload.FastExecMs)
	}
	// The pipeline keeps up: completions track releases.
	rel, comp := s.releasedSets[0], s.completedSets[0]
	if comp < rel-10 {
		t.Errorf("fast task falling behind: released=%d completed=%d", rel, comp)
	}
}

// Quantum scheduling shows more latency spread than GPS at equal shares.
func TestSimQuantumLagExceedsGPS(t *testing.T) {
	run := func(kind SchedulerKind) float64 {
		w := workload.Prototype()
		s, err := New(w, Config{Scheduler: kind, QuantumMs: 5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(10000)
		return s.SubtaskLatency(0, 0).Quantile(0.95)
	}
	gps, quantum := run(GPS), run(Quantum)
	if quantum <= gps {
		t.Errorf("quantum p95 %v should exceed GPS p95 %v", quantum, gps)
	}
}

// Starving a subtask (share far below its arrival demand) grows its backlog.
func TestSimOverloadGrowsBacklog(t *testing.T) {
	// WCET 2ms every 10ms needs share 0.2; give 0.05 against a saturating
	// background.
	s, err := New(singleSubtaskWorkload(0.1, 10), Config{Scheduler: GPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShares([][]float64{{0.05}}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5000)
	if got := s.Backlog(0, 0); got < 10 {
		t.Errorf("backlog = %d, want large (overload)", got)
	}
}

func TestSimSetSharesValidation(t *testing.T) {
	s, err := New(singleSubtaskWorkload(1, 10), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShares([][]float64{{0.5}}); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if s.Share(0, 0) != 0.5 {
		t.Errorf("Share = %v, want 0.5", s.Share(0, 0))
	}
	if err := s.SetShares([][]float64{}); err == nil {
		t.Error("wrong task count should fail")
	}
	if err := s.SetShares([][]float64{{0.5, 0.5}}); err == nil {
		t.Error("wrong subtask count should fail")
	}
	if err := s.SetShares([][]float64{{-1}}); err == nil {
		t.Error("negative share should fail")
	}
}

func TestSimResetStats(t *testing.T) {
	s, err := New(singleSubtaskWorkload(1, 10), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(500)
	if s.SubtaskLatency(0, 0).Count() == 0 {
		t.Fatal("no samples collected")
	}
	s.ResetStats()
	if s.SubtaskLatency(0, 0).Count() != 0 || s.TaskLatency(0).Count() != 0 {
		t.Error("ResetStats did not clear samples")
	}
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		s, err := New(workload.Prototype(), Config{Scheduler: Quantum, Seed: 9, ExecJitterFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(5000)
		return s.TaskLatency(0).Quantile(0.9)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestSimExecJitterShortensJobs(t *testing.T) {
	s, err := New(singleSubtaskWorkload(1, 10), Config{Scheduler: GPS, Seed: 5, ExecJitterFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(2000)
	med := s.SubtaskLatency(0, 0).Quantile(0.5)
	if med >= 2 || med <= 1 {
		t.Errorf("median with 50%% jitter = %v, want in (1,2)", med)
	}
}

func TestSimRejectsInvalidWorkload(t *testing.T) {
	w := singleSubtaskWorkload(1, 10)
	w.Resources = nil
	if _, err := New(w, Config{}); err == nil {
		t.Error("invalid workload should fail")
	}
	w2 := singleSubtaskWorkload(1, 10)
	w2.Tasks[0].Trigger = task.Trigger{}
	if _, err := New(w2, Config{}); err == nil {
		t.Error("missing trigger should fail")
	}
	if _, err := New(singleSubtaskWorkload(1, 10), Config{Scheduler: SchedulerKind(9)}); err == nil {
		t.Error("unknown scheduler kind should fail")
	}
}

// Both disciplines agree on long-run throughput for a saturated system.
func TestSimSchedulerDisciplinesAgreeOnThroughput(t *testing.T) {
	var counts []int
	for _, kind := range []SchedulerKind{GPS, Quantum} {
		s, err := New(workload.Prototype(), Config{Scheduler: kind, QuantumMs: 5, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(20000)
		counts = append(counts, s.completedSets[0])
	}
	for i := 1; i < len(counts); i++ {
		if d := math.Abs(float64(counts[i]-counts[0])) / float64(counts[0]); d > 0.05 {
			t.Errorf("throughput disagreement: %v", counts)
		}
	}
}

// Section 6.2's utilization claim: the prototype workload's demand is 66% of
// each CPU (2×0.2 + 2×0.13 minimum shares), independent of the enacted
// shares, because proportional-share scheduling is work conserving.
func TestSimPrototypeUtilizationIs66Percent(t *testing.T) {
	s, err := New(workload.Prototype(), Config{Scheduler: Quantum, QuantumMs: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(3000)
	s.ResetStats()
	s.RunFor(30000)
	for _, id := range []string{"cpu0", "cpu1", "cpu2"} {
		u, ok := s.Utilization(id)
		if !ok {
			t.Fatalf("no utilization for %s", id)
		}
		if math.Abs(u-0.66) > 0.02 {
			t.Errorf("%s utilization = %.3f, want ≈0.66 (paper Section 6.2)", id, u)
		}
	}
	if _, ok := s.Utilization("nope"); ok {
		t.Error("unknown resource should report false")
	}
}

package core

import (
	"runtime"
	"sync"
	"testing"

	"lla/internal/obs"
	"lla/internal/workload"
)

// Alloc regression for the observability hook: with no observer attached,
// the steady-state Step must stay allocation-free — the hot path pays one
// nil-check and nothing else. Guards the PR 1 zero-allocation invariant on
// both the serial and the sharded iteration.
func TestStepZeroAllocsNilObserver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(workload.Base(), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(50, nil) // warm up: scratch buffers reach steady state
		allocs := testing.AllocsPerRun(200, func() { e.Step() })
		if allocs != 0 {
			t.Errorf("workers=%d: Step allocated %.1f/op with nil observer, want 0", workers, allocs)
		}
		e.Close()
	}
}

// With an observer attached the bound still holds: the KKT residual vector
// goes through the reused KKTResidualsInto scratch and the ring recorder's
// Commit deep-copies into pre-grown slots, so once warm the observed Step
// performs no heap allocation either.
func TestStepZeroAllocsWithObserver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(workload.Base(), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		o := &obs.Observer{Recorder: obs.NewRing(8), Metrics: obs.NewRegistry()}
		e.Observe(o)
		e.Run(50, nil) // warm up: ring slots and the residual scratch grow once
		allocs := testing.AllocsPerRun(200, func() { e.Step() })
		if allocs != 0 {
			t.Errorf("workers=%d: observed Step allocated %.1f/op, want 0", workers, allocs)
		}
		e.Close()
	}
}

// Attaching and detaching an observer mid-run must not disturb the
// trajectory: observation is read-only.
func TestObserveIsReadOnly(t *testing.T) {
	plain, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	observed, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer observed.Close()
	o := &obs.Observer{Recorder: obs.NewRing(16), Metrics: obs.NewRegistry(), Trace: &obs.Memory{}}
	observed.Observe(o)

	plain.Run(60, nil)
	observed.Run(30, nil)
	observed.Observe(nil)
	observed.Run(15, nil)
	observed.Observe(o)
	observed.Run(15, nil)

	a, b := plain.Snapshot(), observed.Snapshot()
	if a.Utility != b.Utility {
		t.Errorf("observation changed the trajectory: %v vs %v", a.Utility, b.Utility)
	}
	for ri := range a.Mu {
		if a.Mu[ri] != b.Mu[ri] {
			t.Errorf("mu[%d]: %v vs %v", ri, a.Mu[ri], b.Mu[ri])
		}
	}
}

// The recorder contract under the race detector: the driving goroutine
// Steps a sharded engine with a Ring attached while a reader goroutine
// polls samples and renders the metrics registry concurrently.
func TestObserveRecorderConcurrentReaders(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ring := obs.NewRing(32)
	reg := obs.NewRegistry()
	o := &obs.Observer{Recorder: ring, Metrics: reg, Trace: &obs.Memory{}}
	e.Observe(o)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sink := ring.Samples()
			for i := 1; i < len(sink); i++ {
				if sink[i].Iteration <= sink[i-1].Iteration {
					t.Errorf("samples out of order: %d then %d", sink[i-1].Iteration, sink[i].Iteration)
					return
				}
			}
			reg.WritePrometheus(discard{})
		}
	}()
	for i := 0; i < 400; i++ {
		e.Step()
	}
	close(stop)
	wg.Wait()

	if ring.Total() != 400 {
		t.Errorf("ring recorded %d iterations, want 400", ring.Total())
	}
	last, ok := ring.Last()
	if !ok || last.Iteration != 400 {
		t.Errorf("last sample = %+v, ok=%v, want iteration 400", last, ok)
	}
	if last.KKTCount == 0 {
		t.Error("converging engine reported no interior subtasks in the KKT stats")
	}
	if len(last.Mu) != len(workload.Base().Resources) {
		t.Errorf("sample has %d prices, want %d", len(last.Mu), len(workload.Base().Resources))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// WithDefaults is the single source of default-filling: the worker count it
// fills matches what the engine resolves, so every entry point that calls
// WithDefaults (engine, dist runtime, standalone nodes) agrees on the
// effective configuration.
func TestWithDefaultsFillsWorkers(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("WithDefaults Workers = %d, want GOMAXPROCS %d", cfg.Workers, runtime.GOMAXPROCS(0))
	}
	if again := cfg.WithDefaults(); again != cfg {
		t.Errorf("WithDefaults is not idempotent: %+v vs %+v", again, cfg)
	}
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := resolveShards(cfg.Workers, len(workload.Base().Tasks))
	if e.Workers() != want {
		t.Errorf("engine resolved %d shards, want %d from the filled default", e.Workers(), want)
	}
}

// Engine trace events: convergence emits exactly one converged event, and
// runtime mutators stamp workload_change events with the mutated entity.
func TestEngineTraceEvents(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mem := &obs.Memory{}
	e.Observe(&obs.Observer{Trace: mem})

	if _, ok := e.RunUntilKKT(20000, 1e-9, 3, 1e-6); !ok {
		t.Fatal("engine did not converge")
	}
	conv := mem.ByKind(obs.EventConverged)
	if len(conv) != 1 {
		t.Fatalf("got %d converged events, want 1", len(conv))
	}
	if conv[0].Iteration == 0 || conv[0].Value == 0 {
		t.Errorf("converged event missing iteration/utility: %+v", conv[0])
	}

	if err := e.SetAvailability("r0", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := e.SetErrorMs("task1", "T11", 0.5); err != nil {
		t.Fatal(err)
	}
	changes := mem.ByKind(obs.EventWorkloadChange)
	if len(changes) != 2 {
		t.Fatalf("got %d workload_change events, want 2", len(changes))
	}
	if changes[0].Resource == "" || changes[0].Detail != "availability" {
		t.Errorf("availability change event: %+v", changes[0])
	}
	if changes[1].Task == "" || changes[1].Detail != "err_ms" {
		t.Errorf("err_ms change event: %+v", changes[1])
	}
}

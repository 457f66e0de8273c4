package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/workload"
)

// Default-filling has a single source: the runtime's stored config is
// exactly core.Config{}.WithDefaults() — no dist-side defaults exist to
// drift from the engine's (step sizers likewise come only from
// core.Config.NewStepSizer; see standalone.go).
func TestConfigDefaultsSingleSource(t *testing.T) {
	net := transport.NewInproc(transport.InprocConfig{QueueLen: 64})
	rt, err := New(workload.Base(), core.Config{}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if want := (core.Config{}).WithDefaults(); !reflect.DeepEqual(rt.cfg, want) {
		t.Errorf("runtime config diverged from WithDefaults:\n got %+v\nwant %+v", rt.cfg, want)
	}
}

// Synchronized runtime with an observer: the coordinator counts rounds on
// the registry (matching the Result), resource gauges carry live
// utilization, and convergence emits a trace event.
func TestRuntimeObserveMetricsAndEvents(t *testing.T) {
	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{QueueLen: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	reg := obs.NewRegistry()
	mem := &obs.Memory{}
	rt.Observe(&obs.Observer{Metrics: reg, Trace: mem})

	res, err := rt.RunUntilConverged(5000, 1e-7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("runtime did not converge")
	}

	dm := obs.NewDistMetrics(reg) // same handles: lookups are idempotent
	if got := dm.Rounds.Value(); got != int64(res.Rounds) {
		t.Errorf("lla_dist_rounds_total = %d, Result.Rounds = %d", got, res.Rounds)
	}
	if dm.RoundSeconds.Count() != uint64(res.Rounds) {
		t.Errorf("round-latency histogram has %d observations, want %d", dm.RoundSeconds.Count(), res.Rounds)
	}
	rm := obs.NewResourceMetrics(reg, workload.Base().Resources[0].ID)
	if u := rm.Utilization.Value(); u <= 0 {
		t.Errorf("resource utilization gauge = %v, want > 0", u)
	}
	conv := mem.ByKind(obs.EventConverged)
	if len(conv) != 1 {
		t.Fatalf("got %d converged events, want 1", len(conv))
	}
	if conv[0].Round == 0 || conv[0].Value == 0 {
		t.Errorf("converged event missing round/utility: %+v", conv[0])
	}
}

// traceLine is the superset of the JSONL schema the reconstruction reads:
// sample lines carry iteration telemetry, event lines carry the trace.
type traceLine struct {
	Record   string  `json:"record"`
	Event    string  `json:"event"`
	Iter     int     `json:"iter"`
	KKTMax   float64 `json:"kkt_max"`
	KKTCount int     `json:"kkt_count"`
	Task     string  `json:"task"`
	Resource string  `json:"resource"`
	Round    int     `json:"round"`
	Node     string  `json:"node"`
	TimeNs   int64   `json:"t_unix_ns"`
}

// Chaos telemetry smoke: one JSONL stream records an observed engine run
// (per-iteration KKT residuals) and an observed async run through a
// crash/restart (degradation trace events); both the residual series and
// the PR 2 degradation story must be reconstructable from the emitted
// lines, and the live registry counters must agree with the AsyncResult.
func TestChaosTelemetryJSONLReconstructs(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	reg := obs.NewRegistry()

	// Phase 1: engine with the JSONL writer as recorder — sample lines.
	e, err := core.NewEngine(workload.Base(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Observe(&obs.Observer{Recorder: j})
	e.Run(40, nil)
	e.Observe(nil)

	// Phase 2: async run under a resource crash/restart, in virtual time —
	// event lines.
	rt, err := NewSim(workload.Base(), core.Config{}, transport.ChaosConfig{Seed: 11, LossRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// LeaseAfter clears the heartbeat cadence a quiesced resource advertises
	// at (RetransmitAfter, with 5% loss) and is far below the crash window.
	rt.SetFaultPolicy(FaultPolicy{
		RetransmitAfter: 3 * time.Millisecond,
		RetransmitMax:   30 * time.Millisecond,
		LeaseAfter:      80 * time.Millisecond,
	})
	rt.Observe(&obs.Observer{Metrics: reg, Trace: j})
	net := rt.Sim()
	net.At(400*time.Millisecond, func() { net.Crash(resourceAddr("r0")) })
	net.At(900*time.Millisecond, func() { net.Restart(resourceAddr("r0")) })
	res, err := rt.RunAsync(2500*time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("JSONL writer error: %v", err)
	}

	// Reconstruct both stories from the one stream.
	var samples, enters, exits int
	lastIter, maxResid := 0, 0.0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		switch tl.Record {
		case "sample":
			samples++
			if tl.Iter != lastIter+1 {
				t.Fatalf("sample iterations not contiguous: %d after %d", tl.Iter, lastIter)
			}
			lastIter = tl.Iter
			if tl.KKTMax > maxResid {
				maxResid = tl.KKTMax
			}
		case "event":
			switch tl.Event {
			case obs.EventDegradedEnter:
				enters++
				if tl.Task == "" || tl.Resource != "r0" {
					t.Errorf("degraded_enter missing task/resource: %+v", tl)
				}
				// The driver's stamps: the emitting controller, its compute
				// step, and the virtual time the lease ran out at — inside
				// the crash window, one lease after it opened.
				if tl.Node != controllerAddr(tl.Task) || tl.Round == 0 {
					t.Errorf("degraded_enter not stamped with node and round: %+v", tl)
				}
				if at := time.Duration(tl.TimeNs); at < 480*time.Millisecond || at > 900*time.Millisecond {
					t.Errorf("degraded_enter at virtual %v, outside the crash window", at)
				}
			case obs.EventDegradedExit:
				exits++
				if tl.Node != controllerAddr(tl.Task) || tl.Round == 0 {
					t.Errorf("degraded_exit not stamped with node and round: %+v", tl)
				}
			}
		default:
			t.Fatalf("unknown record kind in %q", line)
		}
	}
	if samples != 40 {
		t.Errorf("reconstructed %d iteration samples, want 40", samples)
	}
	if maxResid == 0 {
		t.Error("no nonzero KKT residual in the recorded iterations")
	}
	if enters == 0 {
		t.Error("a 500ms crash with a 25ms lease emitted no degraded_enter event")
	}
	if exits == 0 {
		t.Error("restart emitted no degraded_exit event")
	}

	// Registry counters agree with the run's summary.
	dm := obs.NewDistMetrics(reg)
	if got := dm.DegradedRounds.Value(); got != res.DegradedRounds {
		t.Errorf("lla_dist_degraded_rounds_total = %d, AsyncResult.DegradedRounds = %d", got, res.DegradedRounds)
	}
	if got := dm.RejectedStale.Value(); got != res.RejectedStale {
		t.Errorf("lla_dist_rejected_stale_total = %d, AsyncResult.RejectedStale = %d", got, res.RejectedStale)
	}
	if dm.LeaseExpirations.Value() == 0 {
		t.Error("no lease expirations counted despite degradation")
	}
}

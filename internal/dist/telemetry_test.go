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

	res, err := rt.RunUntilKKT(5000)
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
	Epoch    uint64  `json:"epoch"`
	Node     string  `json:"node"`
	Value    float64 `json:"value"`
	TimeNs   int64   `json:"t_unix_ns"`
}

// Chaos telemetry smoke: one JSONL stream records an observed engine run
// (per-iteration KKT residuals), an observed run through a resource crash and
// a coordinator crash, and an observed certificate run, the last two in
// virtual time. The residual series and the outage story — report leases
// expiring inside the crash window, a new coordinator generation, the
// certificate — must be reconstructable from the emitted lines, and the live
// registry counters must agree with the runs' Results.
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

	// Phase 2: resource r0 is down from the start until crashEnd, so the
	// controllers stall and their report leases expire; once rounds flow
	// again the coordinator crashes and a new generation takes over.
	const crashEnd = 60 * time.Millisecond
	chaos := transport.ChaosConfig{Seed: 11, LossRate: 0.05}
	rt := simRuntime(t, workload.Base(), chaos)
	rt.Observe(&obs.Observer{Metrics: reg, Trace: j})
	net := rt.Sim()
	net.Crash(resourceAddr("r0"))
	net.At(crashEnd, func() { net.Restart(resourceAddr("r0")) })
	failover, err := rt.RunWithFailover(120, FailoverPlan{Crashes: []Crash{{AfterEmit: 30, DownFor: 5 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	if failover.CoordinatorRestarts != 1 {
		t.Fatalf("%d coordinator restarts, want 1", failover.CoordinatorRestarts)
	}

	// Phase 3: the certificate stop.
	rt = simRuntime(t, workload.Base(), chaos)
	rt.Observe(&obs.Observer{Metrics: reg, Trace: j})
	certified, err := rt.RunUntilKKT(5000)
	if err != nil {
		t.Fatal(err)
	}
	if !certified.Converged {
		t.Fatal("the certificate run did not converge")
	}
	if err := j.Err(); err != nil {
		t.Fatalf("JSONL writer error: %v", err)
	}

	// Reconstruct the stories from the one stream.
	var samples, expiries, bumps, converged int
	lastIter, maxResid := 0, 0.0
	lineNo, lastExpiry, firstBump, convergedAt := 0, -1, -1, -1
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		lineNo++
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
			// Every dist event is the coordinator's, stamped by the driver.
			if tl.Node != coordinatorAddr {
				t.Errorf("%s not stamped with the coordinator's address: %+v", tl.Event, tl)
			}
			switch tl.Event {
			case obs.EventLeaseExpiry:
				expiries++
				lastExpiry = lineNo
				// The stamps: the silent task and the virtual time the lease
				// ran out at — a lease after the crash opened, and no later
				// than a lease past its end.
				at := time.Duration(tl.TimeNs)
				if tl.Task == "" || at <= fastPolicy().LeaseAfter || at > crashEnd+2*fastPolicy().LeaseAfter {
					t.Errorf("lease_expiry outside the crash window or without a task: %+v at %v", tl, at)
				}
			case obs.EventEpochBump:
				bumps++
				firstBump = lineNo
				if tl.Epoch != 1 || tl.Value != 1 || tl.Round < 30 {
					t.Errorf("epoch_bump stamped epoch=%d value=%v round=%d, want epoch 1 after round 30", tl.Epoch, tl.Value, tl.Round)
				}
			case obs.EventConverged:
				converged++
				convergedAt = lineNo
				if tl.Iter == 0 || tl.Value == 0 {
					t.Errorf("converged event missing iteration/utility: %+v", tl)
				}
			default:
				t.Errorf("unexpected event %q", tl.Event)
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
	if expiries == 0 || bumps != 1 || converged != 1 {
		t.Fatalf("%d lease_expiry, %d epoch_bump and %d converged events, want some, 1 and 1", expiries, bumps, converged)
	}
	if !(lastExpiry < firstBump && firstBump < convergedAt) {
		t.Errorf("story out of order: lease expiries up to line %d, epoch bump at %d, converged at %d", lastExpiry, firstBump, convergedAt)
	}

	// Registry counters agree with the runs' summaries.
	dm := obs.NewDistMetrics(reg)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"lla_dist_rounds_total", dm.Rounds.Value(), int64(failover.Rounds + certified.Rounds)},
		{"lla_dist_retransmits_total", dm.Retransmits.Value(), failover.Retransmits + certified.Retransmits},
		{"lla_dist_rejected_stale_total", dm.RejectedStale.Value(), failover.RejectedStale + certified.RejectedStale},
		{"lla_dist_lease_expirations_total", dm.LeaseExpirations.Value(), failover.LeaseExpirations + certified.LeaseExpirations},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the Results sum to %d", c.name, c.got, c.want)
		}
	}
	if int64(expiries) != dm.LeaseExpirations.Value() {
		t.Errorf("%d lease_expiry events, %d counted", expiries, dm.LeaseExpirations.Value())
	}
}

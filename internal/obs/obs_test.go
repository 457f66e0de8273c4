package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram must count 0")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("lla_test_total", "A counter.").Add(3)
	r.Gauge("lla_test_value", "A gauge.", "resource", "r0").Set(0.5)
	r.Gauge("lla_test_value", "A gauge.", "resource", "r1").Set(1.5)
	r.Histogram("lla_test_seconds", "A histogram.", []float64{0.1, 1}).Observe(0.05)
	r.Histogram("lla_test_seconds", "A histogram.", []float64{0.1, 1}).Observe(0.5)
	r.Histogram("lla_test_seconds", "A histogram.", []float64{0.1, 1}).Observe(5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lla_test_total counter",
		"lla_test_total 3",
		`lla_test_value{resource="r0"} 0.5`,
		`lla_test_value{resource="r1"} 1.5`,
		`lla_test_seconds_bucket{le="0.1"} 1`,
		`lla_test_seconds_bucket{le="1"} 2`,
		`lla_test_seconds_bucket{le="+Inf"} 3`,
		"lla_test_seconds_sum 5.55",
		"lla_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Re-registration returns the same handle.
	if r.Counter("lla_test_total", "A counter.").Value() != 3 {
		t.Error("re-registration did not return the existing counter")
	}
	// Deterministic rendering.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name under two types must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("lla_conflict", "c")
	r.Gauge("lla_conflict", "g")
}

func TestRingRecorder(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		s := r.Begin(i)
		if s == nil {
			t.Fatalf("Begin(%d) returned nil without downsampling", i)
		}
		s.Iteration = i
		s.Utility = float64(i)
		s.Mu = append(s.Mu[:0], float64(i), float64(i+1))
		r.Commit(s)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	got := r.Samples()
	for i, s := range got {
		wantIter := i + 2
		if s.Iteration != wantIter || s.Mu[0] != float64(wantIter) {
			t.Errorf("sample %d = iter %d mu %v", i, s.Iteration, s.Mu)
		}
	}
	last, ok := r.Last()
	if !ok || last.Iteration != 4 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
	// The copies must not alias the ring.
	got[0].Mu[0] = -1
	if again := r.Samples(); again[0].Mu[0] == -1 {
		t.Error("Samples aliases ring storage")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestRingDownsampling(t *testing.T) {
	r := NewRing(10)
	r.Every = 3
	for i := 0; i < 10; i++ {
		if s := r.Begin(i); s != nil {
			s.Iteration = i
			r.Commit(s)
		}
	}
	want := []int{0, 3, 6, 9}
	got := r.Samples()
	if len(got) != len(want) {
		t.Fatalf("recorded %d samples, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Iteration != want[i] {
			t.Errorf("sample %d iter %d, want %d", i, s.Iteration, want[i])
		}
	}
}

func TestJSONLSampleAndEventLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	s := j.Begin(0)
	s.Iteration = 0
	s.Utility = 42
	s.Mu = append(s.Mu[:0], 1, 2)
	j.Commit(s)
	j.Emit(Event{Kind: EventConverged, Iteration: 7, Value: 42})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["record"] != "sample" || rec["utility"] != 42.0 {
		t.Errorf("sample line = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["record"] != "event" || rec["event"] != EventConverged || rec["t_unix_ns"] == 0.0 {
		t.Errorf("event line = %v", rec)
	}
}

func TestMemorySink(t *testing.T) {
	m := NewMemory()
	var o *Observer
	o.Emit(Event{Kind: EventLeaseExpiry}) // nil observer: no-op
	o = &Observer{Trace: m}
	o.Emit(Event{Kind: EventLeaseExpiry, Task: "task1"})
	o.Emit(Event{Kind: EventConverged})
	if got := m.ByKind(EventLeaseExpiry); len(got) != 1 || got[0].Task != "task1" {
		t.Fatalf("ByKind = %v", got)
	}
	if evs := m.Events(); len(evs) != 2 || evs[0].TimeUnixNano == 0 {
		t.Fatalf("Events = %v", evs)
	}
}

func TestConcurrentEmitAndRecord(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	m := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Emit(Event{Kind: EventLeaseExpiry, Task: fmt.Sprintf("task%d", g)})
				m.Emit(Event{Kind: EventEpochBump})
			}
		}(g)
	}
	wg.Wait()
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 800 {
		t.Fatalf("JSONL wrote %d lines, want 800", got)
	}
	if got := len(m.Events()); got != 800 {
		t.Fatalf("memory sink holds %d events, want 800", got)
	}
}

type captureSink struct{ events []Event }

func (c *captureSink) Emit(ev Event) { c.events = append(c.events, ev) }

func TestMultiSinkFansOut(t *testing.T) {
	a, b := &captureSink{}, &captureSink{}
	s := MultiSink(a, nil, b)
	s.Emit(Event{Kind: EventConverged, Value: 42})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("fan-out delivered %d/%d events, want 1/1", len(a.events), len(b.events))
	}
	if a.events[0].Value != 42 || b.events[0].Kind != EventConverged {
		t.Fatalf("payload corrupted: %+v / %+v", a.events[0], b.events[0])
	}
	if MultiSink(nil) != nil {
		t.Fatal("all-nil sink composite should be nil")
	}
	if MultiSink(a) != Sink(a) {
		t.Fatal("single sink should be returned directly")
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lla_dist_retransmits_total", "Messages re-sent.").Add(2)
	srv, addr, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "lla_dist_retransmits_total 2") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Error("/debug/vars missing expvar memstats")
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

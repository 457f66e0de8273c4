package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// commitSample drives one Begin/Commit cycle the way an engine does.
func commitSample(r Recorder, iter int, mu float64) {
	if s := r.Begin(iter); s != nil {
		s.Iteration = iter
		s.Mu = append(s.Mu[:0], mu)
		r.Commit(s)
	}
}

// serveStream starts a debug server carrying st and returns its base URL.
func serveStream(t *testing.T, st *Stream) string {
	t.Helper()
	srv, addr, err := Serve("127.0.0.1:0", nil, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + addr.String()
}

// sseData connects to /stream and returns a reader of its data payloads,
// one per SSE event.
func sseData(t *testing.T, base string) func() string {
	t.Helper()
	resp, err := http.Get(base + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	type line struct {
		s   string
		err error
	}
	lines := make(chan line)
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			select {
			case lines <- line{s: sc.Text()}:
			case <-done:
				return
			}
		}
		select {
		case lines <- line{err: fmt.Errorf("stream ended: %v", sc.Err())}:
		case <-done:
		}
	}()
	next := func() string {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatal(l.err)
			}
			return l.s
		case <-time.After(5 * time.Second):
			t.Fatal("SSE read timed out")
			return ""
		}
	}
	return func() string {
		data, sep := next(), next()
		if !strings.HasPrefix(data, "data: ") || sep != "" {
			t.Fatalf("SSE event %q / %q, want a data line and a blank line", data, sep)
		}
		return strings.TrimPrefix(data, "data: ")
	}
}

// record parses one JSONL line's discriminator.
func record(t *testing.T, line string) string {
	t.Helper()
	var r struct {
		Record string `json:"record"`
	}
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	return r.Record
}

// TestStreamEndpoint: a JSONL Commit and Emit reach an SSE client over
// Serve, in order, each as one data line that parses as the JSONL record.
func TestStreamEndpoint(t *testing.T) {
	st := NewStream(nil)
	next := sseData(t, serveStream(t, st))
	j := NewJSONL(st)
	commitSample(j, 3, 0.5)
	j.Emit(Event{Kind: EventAdmission, Task: "alpha", Value: 1})

	if got := next(); record(t, got) != "sample" || !strings.Contains(got, `"iter":3`) {
		t.Fatalf("first data line %s, want the iteration 3 sample", got)
	}
	got := next()
	var ev Event
	if err := json.Unmarshal([]byte(got), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Record != "event" || ev.Kind != EventAdmission || ev.Task != "alpha" {
		t.Fatalf("second data line %s, want the admission event", got)
	}
}

// TestTraceEventsBroadcast: every trace event emitted through a JSONL over
// the stream reaches each subscriber as one event line carrying its fields,
// with no sample needed first.
func TestTraceEventsBroadcast(t *testing.T) {
	st := NewStream(nil)
	a, b := st.subscribe(), st.subscribe()
	defer st.unsubscribe(a)
	defer st.unsubscribe(b)
	j := NewJSONL(st)
	sent := []Event{
		{Kind: EventAdmission, Task: "alpha", Value: 1},
		{Kind: EventWorkloadChange, Iteration: 7},
	}
	for _, ev := range sent {
		j.Emit(ev)
	}
	for _, ch := range []chan []byte{a, b} {
		for _, want := range sent {
			var got Event
			if err := json.Unmarshal(<-ch, &got); err != nil {
				t.Fatal(err)
			}
			if got.Record != "event" || got.Kind != want.Kind || got.Task != want.Task ||
				got.Iteration != want.Iteration || got.Value != want.Value {
				t.Fatalf("trace line %+v, want %+v", got, want)
			}
		}
	}
}

// TestStateEndpoint: /state is 404 until the first sample, then serves the
// latest one; an event line does not replace it, and neither does the
// writer reusing its buffer.
func TestStateEndpoint(t *testing.T) {
	st := NewStream(nil)
	base := serveStream(t, st)
	get := func() (int, string) {
		resp, err := http.Get(base + "/state")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, _ := get(); code != http.StatusNotFound {
		t.Fatalf("/state before any sample = %d, want 404", code)
	}
	j := NewJSONL(st)
	commitSample(j, 1, 2)
	commitSample(j, 2, 7)
	j.Emit(Event{Kind: EventConverged, Value: 9})
	code, body := get()
	var s IterationSample
	if code != http.StatusOK || json.Unmarshal([]byte(body), &s) != nil || s.Iteration != 2 || s.Mu[0] != 7 {
		t.Fatalf("/state = %d %q, want the iteration 2 sample", code, body)
	}

	buf := []byte(`{"record":"sample","iter":5}` + "\n")
	st.Write(buf)
	copy(buf, `{"record":"event","iter":6} `)
	if _, body := get(); !strings.Contains(body, `"iter":5`) {
		t.Fatalf("/state = %q after the writer reused its buffer, want iteration 5", body)
	}
}

// TestLateSubscriberSeededWithLatestSample: connecting mid-run yields the
// latest sample first, then live lines.
func TestLateSubscriberSeededWithLatestSample(t *testing.T) {
	st := NewStream(nil)
	base := serveStream(t, st)
	j := NewJSONL(st)
	commitSample(j, 0, 1)
	commitSample(j, 1, 2)
	j.Emit(Event{Kind: EventConverged})

	next := sseData(t, base)
	if got := next(); !strings.Contains(got, `"iter":1`) || record(t, got) != "sample" {
		t.Fatalf("seed line %s, want the iteration 1 sample", got)
	}
	j.Emit(Event{Kind: EventWorkloadChange})
	if got := next(); !strings.Contains(got, EventWorkloadChange) {
		t.Fatalf("line after the seed %s, want the live workload_change event", got)
	}
}

// TestSlowSubscriberDropsOverflow: a subscriber that does not read loses
// exactly the lines past its queue, each counted, and later lines still
// arrive whole.
func TestSlowSubscriberDropsOverflow(t *testing.T) {
	reg := NewRegistry()
	st := NewStream(reg)
	ch := st.subscribe()
	defer st.unsubscribe(ch)

	const extra = 5
	buf := make([]byte, 0, 64) // one buffer, reused like the encoder's
	line := func(i int) string { return fmt.Sprintf(`{"record":"event","iter":%d}`+"\n", i) }
	for i := 0; i < streamQueue+extra; i++ {
		buf = append(buf[:0], line(i)...)
		st.Write(buf)
	}
	if got := reg.Counter("lla_stream_dropped_lines_total", "").Value(); got != extra {
		t.Fatalf("dropped %d lines, want %d", got, extra)
	}
	for i := 0; i < streamQueue; i++ {
		if got := string(<-ch); got != line(i) {
			t.Fatalf("queued line %d = %q, want %q", i, got, line(i))
		}
	}
	buf = append(buf[:0], line(99)...)
	st.Write(buf)
	if got := string(<-ch); got != line(99) {
		t.Fatalf("line after the drain = %q, want %q", got, line(99))
	}
	if got := reg.Gauge("lla_stream_connections", "").Value(); got != 1 {
		t.Fatalf("lla_stream_connections = %v, want 1", got)
	}
}

// TestJSONLFeedsFileAndStream: one JSONL encoder over io.MultiWriter hands
// the file and the stream the same lines, byte for byte.
func TestJSONLFeedsFileAndStream(t *testing.T) {
	st := NewStream(nil)
	ch := st.subscribe()
	defer st.unsubscribe(ch)
	var file bytes.Buffer
	j := NewJSONL(io.MultiWriter(&file, st))
	for i := 0; i < 3; i++ {
		commitSample(j, i, float64(i))
	}
	j.Emit(Event{Kind: EventConverged, TimeUnixNano: 1})

	want := strings.SplitAfter(file.String(), "\n")
	want = want[:len(want)-1]
	if len(want) != 4 {
		t.Fatalf("file holds %d lines, want 3 samples and 1 event:\n%s", len(want), file.String())
	}
	for i, w := range want {
		if got := string(<-ch); got != w {
			t.Fatalf("stream line %d = %q, file has %q", i, got, w)
		}
	}
	if len(ch) != 0 {
		t.Fatalf("stream queued %d lines the file does not have", len(ch))
	}
}

// TestJSONLEveryPacesFileAndStream: one JSONL.Every downsamples the samples
// both sinks see; events are never downsampled.
func TestJSONLEveryPacesFileAndStream(t *testing.T) {
	st := NewStream(nil)
	ch := st.subscribe()
	defer st.unsubscribe(ch)
	var file bytes.Buffer
	j := NewJSONL(io.MultiWriter(&file, st))
	j.Every = 2
	for i := 0; i < 4; i++ {
		commitSample(j, i, float64(i))
	}
	j.Emit(Event{Kind: EventConverged, TimeUnixNano: 1})

	if n := strings.Count(file.String(), "\n"); n != 3 {
		t.Fatalf("file holds %d lines, want 2 samples and 1 event:\n%s", n, file.String())
	}
	for _, want := range []string{`"iter":0`, `"iter":2`, EventConverged} {
		if got := string(<-ch); !strings.Contains(got, want) {
			t.Fatalf("stream line %q, want one holding %s", got, want)
		}
	}
	if len(ch) != 0 {
		t.Fatalf("stream queued %d lines past Every's pace", len(ch))
	}
}

// TestDebugHandlerWithoutStream: with no Stream, /stream and /state are not
// mounted.
func TestDebugHandlerWithoutStream(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/stream", "/state"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a stream = %d, want 404", path, resp.StatusCode)
		}
	}
}

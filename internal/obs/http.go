package obs

import (
	"bytes"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugHandler returns the debug mux served behind the CLIs' -debug-addr
// flag:
//
//	/metrics        the registry in Prometheus text format
//	/debug/vars     expvar JSON (process cmdline + memstats)
//	/debug/pprof/   the full net/http/pprof profile suite
//	/stream         SSE: one "data:" event per JSONL line written to st
//	/state          the latest "sample" line st saw (404 before the first)
//
// reg may be nil, in which case /metrics serves an empty exposition. st may
// be nil, in which case /stream and /state are not mounted.
func DebugHandler(reg *Registry, st *Stream) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// Wire pprof explicitly rather than importing it for its DefaultServeMux
	// side effect: the debug server must not leak onto any mux the embedding
	// program serves application traffic from.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if st != nil {
		mux.HandleFunc("/stream", st.serveStream)
		mux.HandleFunc("/state", st.serveState)
	}
	return mux
}

// Serve starts the debug server on addr (e.g. "127.0.0.1:6060"; port 0
// picks a free port) in a background goroutine and returns the server and
// its bound address. st may be nil (no /stream, /state). Callers own
// shutdown via srv.Close.
func Serve(addr string, reg *Registry, st *Stream) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: DebugHandler(reg, st)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// streamQueue is each /stream subscriber's backlog, in lines: enough to
// ride out a reader's scheduling hiccup at one line per iteration, small
// enough that a stalled reader costs a bounded amount of memory.
const streamQueue = 64

// sampleLinePrefix starts every JSONL sample line (sampleLine encodes its
// Record field first).
var sampleLinePrefix = []byte(`{"record":"sample"`)

// Stream is a live tail of a JSONL trace: an io.Writer that expects one
// whole JSONL line per Write (json.Encoder makes exactly one Write per
// Encode, so NewJSONL(io.MultiWriter(file, stream)) feeds it) and fans each
// line out to every /stream subscriber as one SSE "data:" event.
//
// Backpressure is per subscriber: a full queue drops that line and counts
// it in lla_stream_dropped_lines_total. Every line is a complete sample or
// event, so a drop is a gap, never stale or torn state. The latest sample
// line is kept: /state serves it, and a new subscriber receives it first.
type Stream struct {
	m *StreamMetrics

	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	sample []byte
}

// NewStream returns a stream with no subscribers. reg may be nil; pass the
// run's registry to publish lla_stream_* metrics.
func NewStream(reg *Registry) *Stream {
	s := &Stream{m: &StreamMetrics{}, subs: make(map[chan []byte]struct{})}
	if reg != nil {
		s.m = NewStreamMetrics(reg)
	}
	return s
}

// Write fans one JSONL line out. It never fails: a slow subscriber loses
// the line, the writer never blocks.
func (s *Stream) Write(p []byte) (int, error) {
	isSample := bytes.HasPrefix(p, sampleLinePrefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !isSample && len(s.subs) == 0 {
		return len(p), nil
	}
	// The encoder reuses p, and io.MultiWriter hands every writer the same
	// slice: keep a copy, shared read-only by every subscriber.
	line := bytes.Clone(p)
	if isSample {
		s.sample = line
	}
	for ch := range s.subs {
		select {
		case ch <- line:
		default:
			s.m.Dropped.Inc()
		}
	}
	return len(p), nil
}

// subscribe registers a subscriber queue, seeded with the latest sample.
func (s *Stream) subscribe() chan []byte {
	ch := make(chan []byte, streamQueue)
	s.mu.Lock()
	if s.sample != nil {
		ch <- s.sample
	}
	s.subs[ch] = struct{}{}
	s.m.Connections.Set(float64(len(s.subs)))
	s.mu.Unlock()
	return ch
}

// unsubscribe removes a subscriber queue.
func (s *Stream) unsubscribe(ch chan []byte) {
	s.mu.Lock()
	delete(s.subs, ch)
	s.m.Connections.Set(float64(len(s.subs)))
	s.mu.Unlock()
}

// serveStream serves the SSE tail until the client goes away.
func (s *Stream) serveStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the headers go out: a client that has its response
	// misses no line written after that.
	ch := s.subscribe()
	defer s.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case line := <-ch:
			// line ends in the encoder's newline; one more ends the event.
			if _, err := fmt.Fprintf(w, "data: %s\n", line); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// serveState serves the latest sample line as plain JSON.
func (s *Stream) serveState(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	line := s.sample
	s.mu.Unlock()
	if line == nil {
		http.Error(w, "no sample recorded yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(line)
}

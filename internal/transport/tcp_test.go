package transport

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lla/internal/obs"
	"lla/internal/wire"
)

// countNegotiations reads lla_wire_negotiations_total by outcome.
func countNegotiations(reg *obs.Registry, outcome string) int64 {
	return reg.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", outcome).Value()
}

// observedCodec is the dictionary-less codec counting into reg.
func observedCodec(reg *obs.Registry) *wire.Codec {
	c := wire.NewCodec(nil)
	c.Observe(reg)
	return c
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within two seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// Eight endpoints of one network share its one connection to a ninth
// endpoint: every frame arrives, each sender's in Send order, over a single
// handshake.
func TestTCPSharedConnectionKeepsSenderOrder(t *testing.T) {
	const senders, frames = 8, 500
	reg := obs.NewRegistry()
	sinkNet := NewTCP(map[string]string{"sink": "127.0.0.1:0"})
	sinkNet.SetCodec(observedCodec(reg))
	sink, err := sinkNet.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	hp, _ := sinkNet.lookup("sink")
	registry := map[string]string{"sink": hp}
	for i := range senders {
		registry[fmt.Sprintf("s%d", i)] = "127.0.0.1:0"
	}
	n := NewTCP(registry)
	var wg sync.WaitGroup
	for i := range senders {
		ep, err := n.Endpoint(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range frames {
				if err := ep.Send("sink", wire.KindReport, ping(k)); err != nil {
					t.Errorf("%s: %v", ep.Addr(), err)
					return
				}
			}
		}()
	}
	next := make(map[string]int)
	for got := 0; got < senders*frames; got++ {
		m := recvOne(t, sink)
		if k := pingN(t, m); k != next[m.From] {
			t.Fatalf("%s: frame %d arrived, want %d", m.From, k, next[m.From])
		}
		next[m.From]++
	}
	wg.Wait()
	if got := countNegotiations(reg, "binary"); got != 1 {
		t.Fatalf("the receiver counted %d handshakes, want 1 shared connection", got)
	}
}

// A receiver that never drains its inbox cannot hang its senders: once its
// inbox, the kernel's buffers and the 1 MiB send queue are full, Send fails
// fast naming the destination, and both ends still close promptly.
func TestTCPStalledReceiverNeverBlocksSender(t *testing.T) {
	base := runtime.NumGoroutine()
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]string, 1000)
	for i := range subs {
		subs[i] = fmt.Sprintf("s%04d", i) // ascending, as a LATENCY frame requires
	}
	big := wire.ShareReport{Round: 1, Task: "t", Subs: subs, LatMs: make([]float64, len(subs))}
	var full error
	for i := 0; i < 100000 && full == nil; i++ {
		start := time.Now()
		full = a.Send("b", wire.KindLatency, big)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Send %d took %v", i, d)
		}
	}
	if full == nil || !strings.Contains(full.Error(), `"b"`) {
		t.Fatalf("Send to a stalled receiver = %v, want a full-queue error naming it", full)
	}
	for _, ep := range []Endpoint{a, b} {
		start := time.Now()
		ep.Close()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("closing %s took %v", ep.Addr(), d)
		}
	}
	waitGoroutines(t, base)
}

// A client that connects and says nothing is refused after dialTimeout, and
// counted, instead of pinning a reader for the endpoint's lifetime.
func TestTCPSilentClientIsRefused(t *testing.T) {
	reg := obs.NewRegistry()
	n := NewTCP(map[string]string{"srv": "127.0.0.1:0"})
	n.SetCodec(observedCodec(reg))
	n.dialTimeout = 50 * time.Millisecond
	srv, err := n.Endpoint("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hp, _ := n.lookup("srv")
	conn, err := net.Dial("tcp", hp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the server kept the silent connection open: %v", err)
	}
	if len(reply) != 10 || string(reply[:4]) != "LLAB" || reply[4] != 0 {
		t.Fatalf("answer % x, want the refusing ack", reply)
	}
	if got := countNegotiations(reg, "refused"); got != 1 {
		t.Fatalf("%d refusals counted, want 1", got)
	}
}

// The peer of an established connection restarts on the same port: frames
// sent after the sender has seen it hang up — while it is down and once it
// is back — all arrive, the first batch perhaps twice, as the writer
// re-dials within RetryWindow and writes its batch again. (A frame written
// before the hang-up is seen is lost in the peer's reset, as on any TCP
// connection.)
func TestTCPWriterRedialsAfterPeerRestart(t *testing.T) {
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", wire.KindReport, ping(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	b.Close()
	hungUp := func() bool {
		n.pool.mu.Lock()
		c := n.pool.conns["b"]
		n.pool.mu.Unlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.nc == nil || c.nc.SetWriteDeadline(time.Time{}) != nil
	}
	for deadline := time.Now().Add(5 * time.Second); !hungUp(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sender never saw the peer hang up")
		}
	}

	const down, total = 50, 100
	for k := 1; k <= down; k++ {
		if err := a.Send("b", wire.KindReport, ping(k)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(40 * time.Millisecond)
	if b, err = n.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for k := down + 1; k <= total; k++ {
		if err := a.Send("b", wire.KindReport, ping(k)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool)
	for deadline := time.After(n.RetryWindow); len(seen) < total; {
		select {
		case m := <-b.Recv():
			seen[pingN(t, m)] = true
		case <-deadline:
			t.Fatalf("%d of frames 1..%d arrived within %v", len(seen), total, n.RetryWindow)
		}
	}
}

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

// observedCodec is the empty-dictionary codec counting into reg.
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
// handshake. The burst fills the receiver's inbox exactly, so none may be
// dropped.
func TestTCPSharedConnectionKeepsSenderOrder(t *testing.T) {
	const senders, frames = 8, 128
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
				if err := ep.Send("sink", pingKind, ping(k)); err != nil {
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

// A peer that stops reading its socket cannot hang its senders: once the
// kernel's buffers and the 1 MiB send queue are full, Send fails fast
// naming the destination, and the sender still closes promptly. (An
// endpoint of this package never stops reading: its listener drops what a
// full inbox cannot take.)
func TestTCPStalledReceiverNeverBlocksSender(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled := make(chan net.Conn, 1)
	go func() { // "b": acknowledges the hello, then never reads again
		conn, err := ln.Accept()
		if err == nil {
			ack, _ := wire.NewCodec(nil).Accept(conn)
			conn.Write(ack)
		}
		stalled <- conn
	}()
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": ln.Addr().String()})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 14000) // a RAW frame about the size of a 1000-pair share report
	var full error
	for i := 0; i < 100000 && full == nil; i++ {
		start := time.Now()
		full = a.Send("b", "bulk", big)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Send %d took %v", i, d)
		}
	}
	if full == nil || !strings.Contains(full.Error(), `"b"`) {
		t.Fatalf("Send to a stalled receiver = %v, want a full-queue error naming it", full)
	}
	start := time.Now()
	a.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("closing a took %v", d)
	}
	if conn := <-stalled; conn != nil {
		conn.Close()
	}
	ln.Close()
	waitGoroutines(t, base)
}

// openAll opens the named endpoints of n, closing them when the test ends.
func openAll(t *testing.T, n *TCP, addrs ...string) map[string]Endpoint {
	t.Helper()
	eps := make(map[string]Endpoint, len(addrs))
	for _, addr := range addrs {
		ep, err := n.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[addr] = ep
	}
	return eps
}

// The endpoints of one network share one kernel-assigned port and one
// outbound connection, to that port: every endpoint sends to every other,
// the listener routes each frame by its To, and each receiver gets each
// sender's frames in Send order.
func TestTCPSharedListenerRoutesByTo(t *testing.T) {
	const peers, frames = 8, 100 // 700 frames a receiver: its inbox holds them all
	reg := obs.NewRegistry()
	registry := make(map[string]string)
	var addrs []string
	for i := range peers {
		addrs = append(addrs, fmt.Sprintf("p%d", i))
		registry[addrs[i]] = "127.0.0.1:0"
	}
	n := NewTCP(registry)
	n.SetCodec(observedCodec(reg))
	eps := openAll(t, n, addrs...)
	hp, _ := n.lookup("p0")
	for _, addr := range addrs {
		if got, _ := n.lookup(addr); got != hp {
			t.Fatalf("%s is bound to %s, p0 to %s: want one shared port", addr, got, hp)
		}
	}
	var wg sync.WaitGroup
	for _, from := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range frames {
				for _, to := range addrs {
					if to == from {
						continue
					}
					if err := eps[from].Send(to, pingKind, ping(k)); err != nil {
						t.Errorf("%s -> %s: %v", from, to, err)
						return
					}
				}
			}
		}()
	}
	for _, to := range addrs {
		next := make(map[string]int)
		for got := 0; got < (peers-1)*frames; got++ {
			m := recvOne(t, eps[to])
			if m.To != to {
				t.Fatalf("%s received a frame for %s", to, m.To)
			}
			if k := pingN(t, m); k != next[m.From] {
				t.Fatalf("%s -> %s: frame %d arrived, want %d", m.From, to, k, next[m.From])
			}
			next[m.From]++
		}
	}
	wg.Wait()
	if got := countNegotiations(reg, "binary"); got != 2 {
		t.Fatalf("%d handshake ends counted, want 2: one connection, dialed and accepted", got)
	}
}

// A frame to a co-located address that is closed, or was never opened, is
// dropped without an error, and the listener goes on serving the others;
// the address opened again receives again.
func TestTCPClosedNeighbourIsUnrouted(t *testing.T) {
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0", "c": "127.0.0.1:0"})
	eps := openAll(t, n, "a", "b", "c")
	hp, _ := n.lookup("a")
	n.Register("ghost", hp)
	eps["b"].Close()
	for k, to := range []string{"b", "ghost", "c"} {
		if err := eps["a"].Send(to, pingKind, ping(k)); err != nil {
			t.Fatalf("send to %s: %v", to, err)
		}
	}
	if m := recvOne(t, eps["c"]); m.To != "c" || pingN(t, m) != 2 {
		t.Fatalf("c received %+v, want ping 2", m)
	}
	if _, ok := <-eps["b"].Recv(); ok {
		t.Fatal("the closed endpoint received a frame")
	}
	b := openAll(t, n, "b")["b"]
	if err := eps["a"].Send("b", pingKind, ping(3)); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b); pingN(t, m) != 3 {
		t.Fatalf("reopened b received %+v, want ping 3", m)
	}
	if len(eps["c"].Recv()) != 0 {
		t.Fatal("a dropped frame reached c")
	}
}

// An endpoint that stops reading does not stall the endpoints that share its
// listener and connection: once its inbox is full its frames are dropped,
// and every frame to its neighbour, sent between them, arrives in order.
func TestTCPStalledEndpointDoesNotStallNeighbours(t *testing.T) {
	const frames, every = 3000, 6 // to the stalled inbox, which holds 1024; every 6th to c too
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "stalled": "127.0.0.1:0", "c": "127.0.0.1:0"})
	eps := openAll(t, n, "a", "stalled", "c")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range frames {
			err := eps["a"].Send("stalled", pingKind, ping(k))
			if err == nil && k%every == 0 {
				err = eps["a"].Send("c", pingKind, ping(k))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < frames; k += every {
		if got := pingN(t, recvOne(t, eps["c"])); got != k {
			t.Fatalf("c: frame %d arrived, want %d", got, k)
		}
	}
	<-done
	if got := len(eps["stalled"].Recv()); got != cap(eps["stalled"].Recv()) {
		t.Fatalf("stalled inbox holds %d frames, want it full (%d)", got, cap(eps["stalled"].Recv()))
	}
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

// The peer process of an established connection restarts on the same port:
// frames sent after the sender has seen it hang up — while it is down and
// once it is back — all arrive, the first batch perhaps twice, as the
// writer re-dials within RetryWindow and writes its batch again. (A frame
// written before the hang-up is seen is lost in the peer's reset, as on any
// TCP connection.)
func TestTCPWriterRedialsAfterPeerRestart(t *testing.T) {
	n := NewTCP(map[string]string{"a": "127.0.0.1:0"})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := NewTCP(map[string]string{"b": "127.0.0.1:0"})
	b, err := peer.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	hp, _ := peer.lookup("b")
	n.Register("b", hp)
	if err := a.Send("b", pingKind, ping(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	b.Close()
	hungUp := func() bool {
		n.pool.mu.Lock()
		c := n.pool.conns[hp]
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
		if err := a.Send("b", pingKind, ping(k)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(40 * time.Millisecond)
	if b, err = peer.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for k := down + 1; k <= total; k++ {
		if err := a.Send("b", pingKind, ping(k)); err != nil {
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

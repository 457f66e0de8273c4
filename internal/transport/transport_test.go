package transport

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lla/internal/wire"
)

// ping is a framed test payload carrying the number n. It travels as kind
// pingKind, a frame that names no resource, task or subtask, so every
// network accepts it, TCP's empty-dictionary codec included.
func ping(n int) wire.Stop { return wire.Stop{AfterRound: n} }

const pingKind = wire.KindStop

// pingN reads back the number a ping carries.
func pingN(t *testing.T, m Message) int {
	t.Helper()
	p, ok := m.Payload.(wire.Stop)
	if !ok {
		t.Fatalf("payload = %#v, want a ping", m.Payload)
	}
	return p.AfterRound
}

func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

func testRoundTrip(t *testing.T, n Network) {
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send("b", pingKind, ping(7)); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if m.From != "a" || m.To != "b" || m.Kind != pingKind {
		t.Fatalf("envelope = %+v", m)
	}
	if n := pingN(t, m); n != 7 {
		t.Fatalf("payload = %+v", m.Payload)
	}

	// Reply path.
	if err := b.Send("a", wire.KindRejoin, wire.Rejoin{Epoch: 8}); err != nil {
		t.Fatal(err)
	}
	m = recvOne(t, a)
	if m.Kind != wire.KindRejoin || m.Payload != any(wire.Rejoin{Epoch: 8}) {
		t.Fatalf("reply = %+v", m)
	}
}

func TestInprocRoundTrip(t *testing.T) {
	testRoundTrip(t, NewInproc(InprocConfig{}))
}

func TestTCPRoundTrip(t *testing.T) {
	testRoundTrip(t, NewTCP(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	}))
}

func TestInprocOrderingPerPair(t *testing.T) {
	n := NewInproc(InprocConfig{})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := a.Send("b", pingKind, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if n := pingN(t, recvOne(t, b)); n != i {
			t.Fatalf("out of order: got %d, want %d", n, i)
		}
	}
}

func TestInprocDuplicateAddress(t *testing.T) {
	n := NewInproc(InprocConfig{})
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("duplicate address should fail")
	}
	if _, err := n.Endpoint(""); err == nil {
		t.Fatal("empty address should fail")
	}
}

func TestInprocUnknownDestination(t *testing.T) {
	n := NewInproc(InprocConfig{})
	a, _ := n.Endpoint("a")
	defer a.Close()
	if err := a.Send("ghost", pingKind, ping(0)); err == nil {
		t.Fatal("send to unknown endpoint should fail")
	}
}

// A destination that has never registered may be late, so Send waits for it;
// one that registered and closed is gone, so Send fails at once — until the
// address registers again.
func TestInprocClosedAddressFailsFast(t *testing.T) {
	n := NewInproc(InprocConfig{RegistrationWait: 10 * time.Second})
	a, _ := n.Endpoint("a")
	defer a.Close()
	b, _ := n.Endpoint("b")
	b.Close()
	start := time.Now()
	if err := a.Send("b", pingKind, ping(0)); err == nil {
		t.Fatal("send to a closed endpoint should fail")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("send to a closed endpoint took %v, want immediate failure", d)
	}

	b2, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := a.Send("b", pingKind, ping(7)); err != nil {
		t.Fatalf("send to a re-registered address: %v", err)
	}
	if n := pingN(t, recvOne(t, b2)); n != 7 {
		t.Fatalf("re-registered endpoint received ping %d, want 7", n)
	}

	// Never registered: still waited for, and found when it arrives late.
	late := make(chan Endpoint)
	go func() {
		time.Sleep(30 * time.Millisecond)
		c, _ := n.Endpoint("c")
		late <- c
	}()
	start = time.Now()
	if err := a.Send("c", pingKind, ping(0)); err != nil {
		t.Fatalf("send to a late endpoint: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("send to a late endpoint returned after %v, before it registered", d)
	}
	c := <-late
	defer c.Close()
	recvOne(t, c)

	short := NewInproc(InprocConfig{RegistrationWait: 40 * time.Millisecond})
	s, _ := short.Endpoint("s")
	defer s.Close()
	start = time.Now()
	if err := s.Send("ghost", pingKind, ping(0)); err == nil {
		t.Fatal("send to a never-registered endpoint should fail once the wait is over")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("send to a never-registered endpoint failed after %v, before the 40ms wait", d)
	}
}

// sendPlanned applies one Faults.Plan decision to a send over ep, the way a
// fault-injecting driver does: no copy on loss, two on duplication, each
// after the planned delay. It returns when every copy has been handed to the
// network.
func sendPlanned(t *testing.T, f *Faults, ep Endpoint, to string, payload any) {
	t.Helper()
	copies, delay := f.Plan()
	time.Sleep(delay)
	for i := 0; i < copies; i++ {
		if err := ep.Send(to, pingKind, payload); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInprocDropInjection(t *testing.T) {
	f := NewFaults(ChaosConfig{LossRate: 0.5, Seed: 1})
	n := NewInproc(InprocConfig{})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	for i := 0; i < 200; i++ {
		sendPlanned(t, f, a, "b", ping(i))
	}
	got := 0
	b.Close() // closes the channel so we can drain it
	for range b.Recv() {
		got++
	}
	if got < 50 || got > 150 {
		t.Fatalf("received %d of 200 at 50%% drop, want ≈100", got)
	}
	if dropped := f.Stats().Dropped; int64(got) != 200-dropped {
		t.Errorf("received %d of 200 with %d counted dropped", got, dropped)
	}
}

func TestInprocDelayedDelivery(t *testing.T) {
	f := NewFaults(ChaosConfig{DelayMs: 5})
	n := NewInproc(InprocConfig{})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()
	start := time.Now()
	sendPlanned(t, f, a, "b", ping(1))
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~5ms", elapsed)
	}
	if st := f.Stats(); st.Delayed != 1 {
		t.Errorf("stats: %+v, want 1 delayed", st)
	}
}

func TestInprocSendAfterClose(t *testing.T) {
	n := NewInproc(InprocConfig{})
	a, _ := n.Endpoint("a")
	a.Close()
	if err := a.Send("a", pingKind, ping(0)); err == nil {
		t.Fatal("send after close should fail")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	n := NewTCP(map[string]string{"a": "127.0.0.1:0"})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("ghost", pingKind, ping(0)); err == nil {
		t.Fatal("send to unregistered name should fail")
	}
}

func TestTCPManyMessagesBothDirections(t *testing.T) {
	n := NewTCP(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const total = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := a.Send("b", pingKind, ping(i)); err != nil {
				t.Errorf("a->b: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := b.Send("a", pingKind, ping(i)); err != nil {
				t.Errorf("b->a: %v", err)
				return
			}
		}
	}()
	gotA, gotB := 0, 0
	deadline := time.After(10 * time.Second)
	for gotA < total || gotB < total {
		select {
		case <-a.Recv():
			gotA++
		case <-b.Recv():
			gotB++
		case <-deadline:
			t.Fatalf("timeout: a=%d b=%d of %d", gotA, gotB, total)
		}
	}
	wg.Wait()
}

func TestTCPEndpointRequiresRegistryEntry(t *testing.T) {
	n := NewTCP(nil)
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("unregistered endpoint should fail")
	}
	n.Register("a", "127.0.0.1:0")
	ep, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
}

func TestTCPSendAfterClose(t *testing.T) {
	n := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer b.Close()
	a.Close()
	if err := a.Send("b", pingKind, ping(0)); err == nil {
		t.Fatal("send after close should fail")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

// A full inbox is the sender's error, never a panic and never a block; what
// was already queued still arrives.
func TestInprocFullInboxIsAnError(t *testing.T) {
	n := NewInproc(InprocConfig{QueueLen: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()
	if err := a.Send("b", pingKind, ping(1)); err != nil {
		t.Fatal(err)
	}
	err := a.Send("b", pingKind, ping(2))
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("send to a full inbox = %v, want an error naming the address", err)
	}
	if n := pingN(t, recvOne(t, b)); n != 1 {
		t.Fatalf("queued message = ping %d, want 1", n)
	}
	// Room again: the endpoint is not poisoned.
	if err := a.Send("b", pingKind, ping(3)); err != nil {
		t.Fatal(err)
	}
}

// A payload with no frame type is marshalled at Send, on every network; one
// that cannot be marshalled fails there.
func TestEncodeUnserializablePayload(t *testing.T) {
	for name, n := range map[string]Network{
		"inproc": NewInproc(InprocConfig{}),
		"tcp":    NewTCP(map[string]string{"a": "127.0.0.1:0"}),
	} {
		a, err := n.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send("a", "x", func() {}); err == nil {
			t.Errorf("%s: unserializable payload should fail", name)
		}
		a.Close()
	}
}

// Wall-clock smoke of the TCP re-send path: the destination's process is
// not listening when Send starts, so the first attempts are refused and
// Send backs off (25 ms, then doubling, jittered) until the peer comes up.
func TestTCPSendBacksOffUntilPeerListens(t *testing.T) {
	net := NewTCP(map[string]string{"a": "127.0.0.1:0"})
	net.RetryWindow = 2 * time.Second
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := NewTCP(map[string]string{"b": "127.0.0.1:0"})
	b, err := peer.Endpoint("b") // binds a port into the registry, then leaves it
	if err != nil {
		t.Fatal(err)
	}
	hp, _ := peer.lookup("b")
	net.Register("b", hp)
	b.Close()

	up := make(chan Endpoint, 1)
	go func() {
		time.Sleep(40 * time.Millisecond)
		b, err := peer.Endpoint("b")
		if err != nil {
			t.Error(err)
		}
		up <- b
	}()
	start := time.Now()
	if err := a.Send("b", pingKind, ping(1)); err != nil {
		t.Fatalf("send across the peer's restart: %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 300*time.Millisecond {
		t.Errorf("send took %v: want the peer's 40ms absence plus at most a few backoff steps", d)
	}
	b = <-up
	if b == nil {
		t.FailNow()
	}
	defer b.Close()
	select {
	case m := <-b.Recv():
		if m.From != "a" || m.Kind != pingKind {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the re-sent message never arrived")
	}
}

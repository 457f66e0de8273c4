package transport

import (
	"testing"
	"time"
)

// collect drains n's endpoint b until it closes, returning the payload Ns in
// arrival order.
func collectNs(t *testing.T, ep Endpoint) []int {
	t.Helper()
	var out []int
	for m := range ep.Recv() {
		var p ping
		if err := m.Decode(&p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p.N)
	}
	return out
}

// A serial sender over the same seed must see the identical loss pattern.
func TestChaosLossDeterministic(t *testing.T) {
	run := func() []int {
		c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{Seed: 9, LossRate: 0.3})
		a, err := c.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for i := 0; i < 200; i++ {
			if err := a.Send("b", "x", ping{N: i}); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		return collectNs(t, b)
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("loss injection inactive: delivered %d of 200", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("non-deterministic loss: %d vs %d delivered", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic delivery at %d: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestChaosDuplication(t *testing.T) {
	c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{Seed: 1, DupRate: 1})
	a, _ := c.Endpoint("a")
	b, _ := c.Endpoint("b")
	defer a.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", "x", ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	got := collectNs(t, b)
	if len(got) != 2*n {
		t.Fatalf("delivered %d messages at DupRate=1, want %d", len(got), 2*n)
	}
	if s := c.Stats(); s.Duplicated != n {
		t.Errorf("stats: %s, want %d duplicated", s, n)
	}
}

func TestChaosDelayAndReorder(t *testing.T) {
	c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{Seed: 4, DelayMs: 2, DelayJitterMs: 4, ReorderRate: 0.5})
	a, _ := c.Endpoint("a")
	b, _ := c.Endpoint("b")
	defer a.Close()
	defer b.Close()
	const n = 100
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send("b", "x", ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]int, 0, n)
	for len(got) < n {
		select {
		case m := <-b.Recv():
			var p ping
			if err := m.Decode(&p); err != nil {
				t.Fatal(err)
			}
			got = append(got, p.N)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d", len(got), n)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~2ms of injected delay", elapsed)
	}
	inOrder := true
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("jittered delay + 50% reorder delivered fully in order")
	}
	c.Wait()
}

func TestChaosCrashRestartBlackholesBothDirections(t *testing.T) {
	c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{Seed: 2})
	a, _ := c.Endpoint("a")
	b, _ := c.Endpoint("b")
	defer a.Close()
	defer b.Close()

	c.Crash("b")
	if err := a.Send("b", "x", ping{N: 1}); err != nil {
		t.Fatalf("send to crashed node must be silent loss, got %v", err)
	}
	if err := b.Send("a", "x", ping{N: 2}); err != nil {
		t.Fatalf("send from crashed node must be silent loss, got %v", err)
	}
	select {
	case m := <-a.Recv():
		t.Fatalf("message %v leaked through a crash", m)
	case <-time.After(20 * time.Millisecond):
	}
	if s := c.Stats(); s.Blackholed != 2 {
		t.Errorf("stats: %s, want 2 blackholed", s)
	}

	c.Restart("b")
	if err := a.Send("b", "x", ping{N: 3}); err != nil {
		t.Fatal(err)
	}
	var p ping
	if err := recvOne(t, b).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.N != 3 {
		t.Fatalf("post-restart payload = %+v", p)
	}
}

func TestChaosPartitionAndHeal(t *testing.T) {
	c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{Seed: 2})
	a, _ := c.Endpoint("a")
	b, _ := c.Endpoint("b")
	x, _ := c.Endpoint("x") // unlisted: reaches everyone
	defer a.Close()
	defer b.Close()
	defer x.Close()

	c.Partition([]string{"a"}, []string{"b"})
	if err := a.Send("b", "x", ping{N: 1}); err != nil {
		t.Fatalf("cross-partition send must be silent loss, got %v", err)
	}
	if err := x.Send("b", "x", ping{N: 2}); err != nil {
		t.Fatal(err)
	}
	var p ping
	if err := recvOne(t, b).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.N != 2 {
		t.Fatalf("partition delivered wrong message: %+v", p)
	}

	c.Heal()
	if err := a.Send("b", "x", ping{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := recvOne(t, b).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.N != 3 {
		t.Fatalf("post-heal payload = %+v", p)
	}
}

// The chaos wrapper composes with the TCP network, not just inproc.
func TestChaosOverTCP(t *testing.T) {
	inner := NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	testRoundTrip(t, NewChaos(inner, ChaosConfig{Seed: 1}))
}

// A fault-free chaos network is a transparent pass-through, including Send
// errors for unknown destinations.
func TestChaosPassthroughErrors(t *testing.T) {
	c := NewChaos(NewInproc(InprocConfig{}), ChaosConfig{})
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("ghost", "x", ping{}); err == nil {
		t.Fatal("send to unknown endpoint should fail")
	}
	if _, err := c.Endpoint("a"); err == nil {
		t.Fatal("duplicate endpoint should fail")
	}
}

// Backoff's jitter comes from the source it is handed and nowhere else: two
// sources with one seed give the same waits, attempt by attempt, inside
// ±25 % of the capped doubling; a Faults stream is such a source, and two
// seeds differ.
func TestBackoffJitterIsSeeded(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	a, b := NewJitter("res/r0"), NewJitter("res/r0")
	fa, fb := NewFaults(ChaosConfig{Seed: 5}), NewFaults(ChaosConfig{Seed: 5})
	other := NewFaults(ChaosConfig{Seed: 6})
	differs := false
	for attempt := 0; attempt < 8; attempt++ {
		want := base << min(attempt, 3)
		d := Backoff(a, attempt, base, max)
		if d != Backoff(b, attempt, base, max) {
			t.Fatalf("attempt %d: equal jitter seeds gave different waits", attempt)
		}
		if d < want*3/4 || d > want*5/4 {
			t.Errorf("attempt %d: wait %v outside ±25%% of %v", attempt, d, want)
		}
		fd := Backoff(fa, attempt, base, max)
		if fd != Backoff(fb, attempt, base, max) {
			t.Fatalf("attempt %d: equal fault seeds gave different waits", attempt)
		}
		differs = differs || fd != Backoff(other, attempt, base, max)
	}
	if !differs {
		t.Error("fault seeds 5 and 6 jittered eight waits identically")
	}
	if Backoff(a, 3, 0, max) != 0 {
		t.Error("a zero base must disable the wait")
	}
}

package transport

import (
	"testing"
	"time"
)

// plan is one Faults.Plan decision.
type plan struct {
	copies int
	delay  time.Duration
}

// plans draws n decisions from a fresh Faults of cfg and returns them with
// the stats they left behind.
func plans(cfg ChaosConfig, n int) ([]plan, ChaosStats) {
	f := NewFaults(cfg)
	out := make([]plan, n)
	for i := range out {
		out[i].copies, out[i].delay = f.Plan()
	}
	return out, f.Stats()
}

// A serial sender over the same seed must see the identical loss pattern,
// at a rate near the configured one, and every loss counted.
func TestChaosLossDeterministic(t *testing.T) {
	const n = 200
	cfg := ChaosConfig{Seed: 9, LossRate: 0.3}
	first, st := plans(cfg, n)
	second, _ := plans(cfg, n)
	lost := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d: %+v, then %+v from the same seed", i, first[i], second[i])
		}
		switch first[i] {
		case plan{0, 0}:
			lost++
		case plan{1, 0}:
		default:
			t.Fatalf("decision %d: %+v under loss only", i, first[i])
		}
	}
	if lost < n/10 || lost > n/2 {
		t.Errorf("lost %d of %d at LossRate 0.3", lost, n)
	}
	if st.Dropped != int64(lost) || st.Duplicated+st.Delayed+st.Reordered+st.Blackholed != 0 {
		t.Errorf("stats: %+v, want %d dropped and nothing else", st, lost)
	}
	other, _ := plans(ChaosConfig{Seed: 10, LossRate: 0.3}, n)
	same := true
	for i := range first {
		same = same && first[i] == other[i]
	}
	if same {
		t.Error("seeds 9 and 10 lost the same messages")
	}
}

func TestChaosDuplication(t *testing.T) {
	const n = 50
	got, st := plans(ChaosConfig{Seed: 1, DupRate: 1}, n)
	for i, p := range got {
		if p != (plan{2, 0}) {
			t.Fatalf("decision %d: %+v at DupRate=1, want two undelayed copies", i, p)
		}
	}
	if st.Duplicated != n {
		t.Errorf("stats: %+v, want %d duplicated", st, n)
	}
}

// Delay plus jitter plus reordering: every copy is held inside the
// configured window, about half are held the extra reorder time, and
// messages sent back to back arrive out of order.
func TestChaosDelayAndReorder(t *testing.T) {
	const n = 100
	cfg := ChaosConfig{Seed: 4, DelayMs: 2, DelayJitterMs: 4, ReorderRate: 0.5}
	got, st := plans(cfg, n)
	again, _ := plans(cfg, n)
	inOrder := true
	for i, p := range got {
		if p != again[i] {
			t.Fatalf("decision %d: %+v, then %+v from the same seed", i, p, again[i])
		}
		if p.copies != 1 || p.delay < 2*time.Millisecond || p.delay >= 9*time.Millisecond {
			t.Fatalf("decision %d: %+v, want one copy held 2ms..9ms", i, p)
		}
		inOrder = inOrder && (i == 0 || p.delay >= got[i-1].delay)
	}
	if inOrder {
		t.Error("jittered delay + 50% reorder delivered fully in order")
	}
	if st.Delayed != n || st.Reordered < n/4 || st.Reordered > 3*n/4 {
		t.Errorf("stats: %+v, want %d delayed and about %d reordered", st, n, n/2)
	}
}

func TestChaosCrashRestartBlackholesBothDirections(t *testing.T) {
	f := NewFaults(ChaosConfig{Seed: 2})
	f.Crash("b")
	if !f.Blocked("a", "b") || !f.Blocked("b", "a") {
		t.Fatal("a crashed node must be cut off in both directions")
	}
	if f.Blocked("a", "c") {
		t.Fatal("a crash cut off two live nodes")
	}
	if st := f.Stats(); st.Blackholed != 2 {
		t.Errorf("stats: %+v, want 2 blackholed", st)
	}
	f.Restart("b")
	if f.Blocked("a", "b") || f.Blocked("b", "a") {
		t.Fatal("a restarted node is still cut off")
	}
	if st := f.Stats(); st.Blackholed != 2 {
		t.Errorf("stats after restart: %+v, want 2 blackholed", st)
	}
}

func TestChaosPartitionAndHeal(t *testing.T) {
	f := NewFaults(ChaosConfig{Seed: 2})
	f.Partition([]string{"a"}, []string{"b"})
	if !f.Blocked("a", "b") || !f.Blocked("b", "a") {
		t.Fatal("traffic crossed the partition")
	}
	// x is in no group: it reaches everyone.
	if f.Blocked("x", "b") || f.Blocked("a", "x") {
		t.Fatal("an unlisted node was cut off")
	}
	f.Partition()
	if f.Blocked("a", "b") {
		t.Fatal("the partition outlived an empty Partition")
	}
	if st := f.Stats(); st.Blackholed != 2 {
		t.Errorf("stats: %+v, want 2 blackholed", st)
	}
}

// A zero-rate Faults passes everything through: every message arrives once
// and undelayed, nobody is blocked, nothing is counted, and Plan draws
// nothing from the seeded stream, which Backoff's jitter then reads
// exactly as a fresh stream of the seed would.
func TestFaultsZeroConfigPassesThrough(t *testing.T) {
	f, fresh := NewFaults(ChaosConfig{Seed: 8}), NewFaults(ChaosConfig{Seed: 8})
	for i := 0; i < 100; i++ {
		if copies, delay := f.Plan(); copies != 1 || delay != 0 {
			t.Fatalf("decision %d: %d copies after %v, want one undelayed", i, copies, delay)
		}
		if f.Blocked("a", "b") {
			t.Fatal("a fault-free stream blocked a message")
		}
	}
	if st := f.Stats(); st != (ChaosStats{}) {
		t.Errorf("stats: %+v, want nothing counted", st)
	}
	if got, want := f.Float64(), fresh.Float64(); got != want {
		t.Errorf("Plan consumed the stream: next draw %v, fresh stream %v", got, want)
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

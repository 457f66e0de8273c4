package transport

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig parameterizes a Faults. All rates are probabilities in [0,1);
// all decisions are drawn from one seeded stream (in send order), so a run
// with the same seed and the same serial send sequence injects exactly the
// same faults.
type ChaosConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// LossRate silently drops messages.
	LossRate float64
	// DupRate delivers messages twice (duplicates share the original's
	// delay, so receivers see genuine back-to-back duplicates).
	DupRate float64
	// DelayMs delays delivery by DelayMs plus a uniform draw from
	// [0, DelayJitterMs); jitter makes concurrent messages overtake each
	// other.
	DelayMs       float64
	DelayJitterMs float64
	// ReorderRate holds a message for an extra 1–3ms so that later sends can
	// pass it, forcing out-of-order delivery even on an otherwise
	// zero-latency network.
	ReorderRate float64
}

// ChaosStats counts the faults a Faults has decided so far.
type ChaosStats struct {
	// Dropped counts messages lost to LossRate.
	Dropped int64
	// Duplicated counts messages delivered twice.
	Duplicated int64
	// Delayed counts messages whose delivery was deferred.
	Delayed int64
	// Reordered counts messages held so later sends could overtake them.
	Reordered int64
	// Blackholed counts messages discarded because an involved node was
	// crashed or the sender and receiver were in different partitions.
	Blackholed int64
}

// Faults is the seeded fault decision stream: which messages are lost,
// duplicated, held or delayed (Plan), which node pairs cannot talk
// (Blocked), and the jitter of retransmission timers (Float64). It only
// decides; dist's virtual driver (dist.NewSim) is the one place the
// decisions are applied, as events on a virtual clock. Safe for concurrent
// use.
type Faults struct {
	cfg ChaosConfig

	mu      sync.Mutex
	rng     *rand.Rand
	crashed map[string]bool
	// group assigns partitioned addresses to partition groups; addresses in
	// different groups cannot communicate, unlisted addresses reach everyone.
	group map[string]int
	stats ChaosStats
}

// NewFaults returns the fault decision stream of one seed.
func NewFaults(cfg ChaosConfig) *Faults {
	return &Faults{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), crashed: make(map[string]bool)}
}

// Crash blackholes the named node: every message it sends or that is sent to
// it is silently discarded until Restart. The node's local state is
// untouched — from its own point of view the network went dark, from its
// peers' point of view it crashed.
func (f *Faults) Crash(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[addr] = true
}

// Restart reconnects a crashed node.
func (f *Faults) Restart(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.crashed, addr)
}

// Partition splits the listed addresses into isolated groups: messages
// between different groups are blackholed. Addresses not listed in any group
// keep full connectivity. A new call replaces the previous partition, and a
// call with no groups removes it.
func (f *Faults) Partition(groups ...[]string) {
	m := make(map[string]int)
	for gi, g := range groups {
		for _, a := range g {
			m[a] = gi
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.group = m
}

// Blocked reports whether traffic from -> to is currently blackholed (a
// crashed end, or ends in different partitions), counting it if so.
func (f *Faults) Blocked(from, to string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	gf, okf := f.group[from]
	gt, okt := f.group[to]
	blocked := f.crashed[from] || f.crashed[to] || (okf && okt && gf != gt)
	if blocked {
		f.stats.Blackholed++
	}
	return blocked
}

// Plan decides the fate of one message: how many copies arrive (0 = lost,
// 2 = duplicated; duplicates share the delay) and after how long. Draws are
// consumed in send order from the seeded stream — and only for the fault
// classes actually configured — so a serial sender replays bit-identically.
func (f *Faults) Plan() (copies int, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, st := &f.cfg, &f.stats
	drop := c.LossRate > 0 && f.rng.Float64() < c.LossRate
	dup := c.DupRate > 0 && f.rng.Float64() < c.DupRate
	d := c.DelayMs
	if c.DelayJitterMs > 0 {
		d += f.rng.Float64() * c.DelayJitterMs
	}
	reorder := c.ReorderRate > 0 && f.rng.Float64() < c.ReorderRate
	if reorder {
		d += 1 + 2*f.rng.Float64()
	}
	if drop {
		st.Dropped++
		return 0, 0
	}
	copies = 1
	if dup {
		st.Duplicated++
		copies = 2
	}
	if reorder {
		st.Reordered++
	}
	if d > 0 {
		st.Delayed++
	}
	return copies, time.Duration(d * float64(time.Millisecond))
}

// Float64 draws from the seeded stream: the jitter source Backoff takes when
// retransmission timing has to replay with the faults.
func (f *Faults) Float64() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Faults) Stats() ChaosStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// NewJitter returns a private jitter source for Backoff, seeded from name so
// that distinct nodes and connections decorrelate without reading a clock.
func NewJitter(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Backoff returns the wait before retry attempt (0-based): base·2^attempt
// with ±25% jitter drawn from rng, capped at max. Shared by the TCP dial
// (a per-connection source) and the distributed runtime's retransmission
// timers (a per-node source, or the run's Faults when the timing has to
// replay from a seed).
func Backoff(rng interface{ Float64() float64 }, attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
}

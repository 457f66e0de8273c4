package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig parameterizes the fault injector of a Chaos network. All rates
// are probabilities in [0,1); all decisions are drawn from one seeded stream
// (in send order), so a run with the same seed and the same serial send
// sequence injects exactly the same faults.
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
	// QueueLen is the capacity of each wrapped endpoint's inbox
	// (default 4096).
	QueueLen int
}

// ChaosStats counts the faults a Chaos network has injected so far.
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

// Chaos wraps any Network with deterministic, composable fault injection:
// loss, delay, duplication, reordering, network partitions, and node
// crash/restart (a crashed node's traffic is blackholed in both directions,
// which is indistinguishable from a process crash to the rest of the
// system). It works over the in-process and TCP networks alike.
type Chaos struct {
	inner Network
	cfg   ChaosConfig
	inj   *injector
	wg    sync.WaitGroup

	mu      sync.Mutex
	crashed map[string]bool
	// group assigns partitioned addresses to partition groups; addresses in
	// different groups cannot communicate, unlisted addresses reach everyone.
	group map[string]int

	dropped, duplicated, delayed, reordered, blackholed atomic.Int64
}

var _ Network = (*Chaos)(nil)

// NewChaos wraps the inner network with fault injection.
func NewChaos(inner Network, cfg ChaosConfig) *Chaos {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 4096
	}
	return &Chaos{
		inner:   inner,
		cfg:     cfg,
		inj:     newInjector(cfg.Seed, cfg.LossRate, cfg.DupRate, cfg.ReorderRate, cfg.DelayMs, cfg.DelayJitterMs),
		crashed: make(map[string]bool),
	}
}

// Endpoint implements Network by wrapping the inner endpoint.
func (c *Chaos) Endpoint(addr string) (Endpoint, error) {
	inner, err := c.inner.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep := &chaosEndpoint{
		c:     c,
		inner: inner,
		addr:  addr,
		out:   make(chan Message, c.cfg.QueueLen),
		done:  make(chan struct{}),
	}
	go ep.pump()
	return ep, nil
}

// Crash blackholes the named node: every message it sends or that is sent to
// it is silently discarded until Restart. The node's local state is
// untouched — from its own point of view the network went dark, from its
// peers' point of view it crashed.
func (c *Chaos) Crash(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[addr] = true
}

// Restart reconnects a crashed node.
func (c *Chaos) Restart(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.crashed, addr)
}

// Partition splits the listed addresses into isolated groups: messages
// between different groups are blackholed. Addresses not listed in any group
// keep full connectivity. A new call replaces the previous partition.
func (c *Chaos) Partition(groups ...[]string) {
	m := make(map[string]int)
	for gi, g := range groups {
		for _, a := range g {
			m[a] = gi
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = m
}

// Heal removes any partition.
func (c *Chaos) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = nil
}

// blocked reports whether traffic from -> to is currently blackholed.
func (c *Chaos) blocked(from, to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed[from] || c.crashed[to] {
		return true
	}
	gf, okf := c.group[from]
	gt, okt := c.group[to]
	return okf && okt && gf != gt
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		Delayed:    c.delayed.Load(),
		Reordered:  c.reordered.Load(),
		Blackholed: c.blackholed.Load(),
	}
}

// Wait blocks until all in-flight delayed deliveries have settled.
func (c *Chaos) Wait() { c.wg.Wait() }

// chaosEndpoint filters one endpoint's traffic through the injector.
type chaosEndpoint struct {
	c     *Chaos
	inner Endpoint
	addr  string
	out   chan Message
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
}

var _ Endpoint = (*chaosEndpoint)(nil)

// Addr implements Endpoint.
func (e *chaosEndpoint) Addr() string { return e.addr }

// Send implements Endpoint, applying the configured faults. Deliveries that
// were deferred (delay, reorder) cannot report errors; transport failures on
// those are indistinguishable from loss, exactly as on a real network.
func (e *chaosEndpoint) Send(to, kind string, payload any) error {
	if e.c.blocked(e.addr, to) {
		e.c.blackholed.Add(1)
		return nil
	}
	drop, dup, reorder, delay := e.c.inj.plan()
	if drop {
		e.c.dropped.Add(1)
		return nil
	}
	if reorder {
		e.c.reordered.Add(1)
	}
	copies := 1
	if dup {
		e.c.duplicated.Add(1)
		copies = 2
	}
	if delay > 0 {
		e.c.delayed.Add(1)
		for i := 0; i < copies; i++ {
			e.c.wg.Add(1)
			go func() {
				defer e.c.wg.Done()
				time.Sleep(delay)
				_ = e.inner.Send(to, kind, payload)
			}()
		}
		return nil
	}
	var err error
	for i := 0; i < copies; i++ {
		if serr := e.inner.Send(to, kind, payload); err == nil {
			err = serr
		}
	}
	return err
}

// pump forwards inbound messages, discarding them while this node is
// crashed or partitioned away from the sender.
func (e *chaosEndpoint) pump() {
	for m := range e.inner.Recv() {
		if e.c.blocked(m.From, e.addr) {
			e.c.blackholed.Add(1)
			continue
		}
		// Forward without blocking when there is room, so messages buffered
		// at Close time still drain deterministically into the outbox;
		// block (or bail out on close) only when the outbox is full.
		select {
		case e.out <- m:
			continue
		default:
		}
		select {
		case e.out <- m:
		case <-e.done:
			// Closing with a full outbox: discard the rest.
		}
	}
	close(e.out)
}

// Recv implements Endpoint.
func (e *chaosEndpoint) Recv() <-chan Message { return e.out }

// Close implements Endpoint.
func (e *chaosEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.closeErr = e.inner.Close()
	})
	return e.closeErr
}

// injector makes the seeded loss/duplication/reorder/delay decisions.
type injector struct {
	mu                 sync.Mutex
	rng                *rand.Rand
	loss, dup, reorder float64
	delayMs, jitterMs  float64
}

func newInjector(seed int64, loss, dup, reorder, delayMs, jitterMs float64) *injector {
	return &injector{
		rng:      rand.New(rand.NewSource(seed)),
		loss:     loss,
		dup:      dup,
		reorder:  reorder,
		delayMs:  delayMs,
		jitterMs: jitterMs,
	}
}

// plan decides the fate of one message. Draws are consumed in send order
// from the seeded stream — and only for the fault classes actually
// configured — so a serial sender replays bit-identically.
func (j *injector) plan() (drop, dup, reorder bool, delay time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.loss > 0 && j.rng.Float64() < j.loss {
		drop = true
	}
	if j.dup > 0 && j.rng.Float64() < j.dup {
		dup = true
	}
	d := j.delayMs
	if j.jitterMs > 0 {
		d += j.rng.Float64() * j.jitterMs
	}
	if j.reorder > 0 && j.rng.Float64() < j.reorder {
		reorder = true
		d += 1 + 2*j.rng.Float64()
	}
	delay = time.Duration(d * float64(time.Millisecond))
	return drop, dup, reorder, delay
}

// Backoff returns the wait before retry attempt (0-based): base·2^attempt
// with ±25% jitter, capped at max. Shared by the TCP reconnect path and the
// distributed runtime's retransmission timers.
func Backoff(attempt int, base, max time.Duration) time.Duration {
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
	j := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * j)
}

// String renders the stats for logs and test failures.
func (s ChaosStats) String() string {
	return fmt.Sprintf("dropped=%d duplicated=%d delayed=%d reordered=%d blackholed=%d",
		s.Dropped, s.Duplicated, s.Delayed, s.Reordered, s.Blackholed)
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/transport"
	"lla/internal/workload"
)

// reportKind is the kind of a controller's per-round report to the
// coordinator; the decorator counts those sends to place round boundaries.
// In a plain Run every controller sends exactly one per round: dist re-sends
// a report only when a restarted coordinator asks nodes to rejoin, and the
// retransmissions Result counts are of price and latency frames. runDistTCP
// checks the count of each traced episode.
const reportKind = "report"

// netCounters is what the bench-owned decorators around transport.Network
// and transport.Codec count, shared by every endpoint of the traced
// episodes.
type netCounters struct {
	tr *tracer
	// parent is the open dist.run span that sends hang from.
	parent atomic.Int64
	// open maps a sender address to its open transport.send span, so the
	// encode the send causes (TCP encodes inside Send) finds its parent.
	open sync.Map

	mu         sync.Mutex
	sendUs     []float64
	sendErrors int
	reports    []time.Time // of the current episode
	frames     int
	bytes      int
	samples    []transport.Message
	encoded    [][]byte
}

// maxFrameSamples bounds the frames kept for the codec replay.
const maxFrameSamples = 4096

// countingNet decorates a Network so every endpoint it makes is counted.
type countingNet struct {
	inner transport.Network
	c     *netCounters
}

func (n *countingNet) Endpoint(addr string) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, c: n.c}, nil
}

type countingEndpoint struct {
	transport.Endpoint
	c *netCounters
}

func (e *countingEndpoint) Send(to, kind string, payload any) error {
	c := e.c
	id := c.tr.begin("transport.send", int(c.parent.Load()))
	c.open.Store(e.Addr(), id)
	start := time.Now()
	err := e.Endpoint.Send(to, kind, payload)
	d := time.Since(start)
	c.open.Delete(e.Addr())
	c.tr.end(id)

	c.mu.Lock()
	c.sendUs = append(c.sendUs, float64(d)/float64(time.Microsecond))
	if err != nil {
		c.sendErrors++
	}
	if kind == reportKind {
		c.reports = append(c.reports, start)
	}
	c.mu.Unlock()
	return err
}

// countingCodec decorates a Codec: frames and bytes out, a sample of real
// frames for the replay, and a wire.encode span under the send that caused
// it.
type countingCodec struct {
	transport.Codec
	c *netCounters
}

func (k *countingCodec) Encode(m transport.Message) ([]byte, error) {
	c := k.c
	parent := int(c.parent.Load())
	if id, ok := c.open.Load(m.From); ok {
		parent = id.(int)
	}
	id := c.tr.begin("wire.encode", parent)
	frame, err := k.Codec.Encode(m)
	c.tr.end(id)
	if err == nil {
		c.mu.Lock()
		c.frames++
		c.bytes += len(frame)
		if len(c.samples) < maxFrameSamples {
			c.samples = append(c.samples, m)
			c.encoded = append(c.encoded, frame)
		}
		c.mu.Unlock()
	}
	return frame, err
}

// takeReports hands over the report times of the episode just run and
// starts the next episode's.
func (c *netCounters) takeReports() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	reports := c.reports
	c.reports = nil
	return reports
}

// roundDurations places a round boundary at every perRound-th report send of
// one episode and returns the gaps between boundaries, in ms. Controllers
// that share no resource may be a round apart, so a boundary is the moment
// the deployment as a whole has reported n rounds' worth, not a barrier.
func roundDurations(reports []time.Time, perRound int) []float64 {
	var out []float64
	for i := 2*perRound - 1; i < len(reports); i += perRound {
		out = append(out, ms(reports[i].Sub(reports[i-perRound])))
	}
	return out
}

// loopbackTCP builds a TCP network with every address of the deployment on
// a kernel-assigned loopback port.
func loopbackTCP(addrs []string, codec transport.Codec) *transport.TCP {
	registry := make(map[string]string, len(addrs))
	for _, a := range addrs {
		registry[a] = "127.0.0.1:0"
	}
	n := transport.NewTCP(registry)
	n.SetCodec(codec)
	return n
}

// runDistTCP is dist-tcp: the optimizer as one node per task and per
// resource plus a coordinator, exchanging binary frames over TCP loopback.
func runDistTCP(r *run) error {
	episodes := max(r.o.scaled(distEpisodes), 2) // a traced run alternates traced and untraced episodes
	rounds := max(r.o.scaled(400), 20)
	cfg := workload.DefaultRandomConfig(r.o.seed)
	cfg.NumTasks, cfg.NumResources, cfg.SlackFactor = 32, 16, 8
	cfg.Availability = r.o.availability
	r.notes = append(r.notes, "dist-tcp traffic crossed the loopback interface of one host, not a network link")

	// Reference: the synchronous engine after the same number of Steps. The
	// protocol promises the same bits.
	w, err := workload.Random(cfg)
	if err != nil {
		return fmt.Errorf("dist-tcp: generating: %w", err)
	}
	ref, err := core.NewEngine(w, core.Config{})
	if err != nil {
		return fmt.Errorf("dist-tcp: reference engine: %w", err)
	}
	for i := 0; i < rounds; i++ {
		ref.Step()
	}
	want := ref.Snapshot()
	ref.Close()

	counters := &netCounters{tr: r.tr}
	counters.parent.Store(-1)
	var newMs, retransmits, stale, roundMs, tracedRoundMs []float64
	var tracedRounds, tracedSuppressed int
	var genD time.Duration
	for i := 0; i < episodes; i++ {
		quiesce()
		root := r.beginOp(i)
		traced := r.traced[i]
		var rt *dist.Runtime
		var newD time.Duration
		setupD := r.tr.timed("setup", root, func(id int) {
			genD = r.tr.timed("workload.gen", id, func(int) { w, err = workload.Random(cfg) })
			if err != nil {
				return
			}
			newD = r.tr.timed("dist.new", id, func(int) {
				var codec transport.Codec = dist.WireCodec(w, nil)
				if traced {
					codec = &countingCodec{Codec: codec, c: counters}
				}
				var net transport.Network = loopbackTCP(dist.Addresses(w), codec)
				if traced {
					net = &countingNet{inner: net, c: counters}
				}
				rt, err = dist.New(w, core.Config{}, net)
			})
		})
		if err != nil {
			return fmt.Errorf("dist-tcp: episode %d set-up: %w", i, err)
		}
		r.setupS = append(r.setupS, setupD.Seconds())
		newMs = append(newMs, ms(newD))

		iter := r.tr.begin("iterate", root)
		var res *dist.Result
		runD := r.tr.timed("dist.run", iter, func(id int) {
			counters.parent.Store(int64(id))
			res, err = rt.Run(rounds)
			counters.parent.Store(-1)
		})
		r.tr.end(iter)
		closeErr := rt.Close()
		if err != nil {
			return fmt.Errorf("dist-tcp: episode %d: %w", i, err)
		}

		verify := r.tr.begin("verify", root)
		r.check(closeErr == nil, "episode %d: closing endpoints: %v", i, closeErr)
		r.check(bitsEqual2(res.LatMs, want.LatMs), "episode %d: latencies differ from core.Engine after %d Steps", i, rounds)
		r.check(bitsEqual(res.Mu, want.Mu), "episode %d: prices differ from core.Engine after %d Steps", i, rounds)
		r.tr.end(verify)
		r.endOp(root, runD, runD, rounds)

		roundMs = append(roundMs, ms(runD)/float64(rounds))
		retransmits = append(retransmits, float64(res.Retransmits))
		stale = append(stale, float64(res.RejectedStale))
		if traced {
			tracedRounds += rounds
			tracedSuppressed += int(res.DeltaSuppressed)
			reports := counters.takeReports()
			r.check(len(reports) == rounds*len(w.Tasks), "episode %d: the decorator saw %d %q sends, not one per task per round (%d): round boundaries unknown",
				i, len(reports), reportKind, rounds*len(w.Tasks))
			tracedRoundMs = append(tracedRoundMs, roundDurations(reports, len(w.Tasks))...)
		}
	}
	r.e2e["round_ms"] = median(roundMs)

	if r.o.trace {
		total := float64(episodes * rounds)
		r.layer["workload.gen_s"] = genD.Seconds()
		r.layer["dist.new_ms"] = median(newMs)
		r.layer["dist.retransmits_per_round"] = sum(retransmits) / total
		r.layer["dist.rejected_stale"] = sum(stale) / float64(episodes)
		r.layer["core.subtask_iters_per_s"] = total * float64(w.TotalSubtasks()) / (sum(r.opMs) / 1e3)
		r.layer["core.iters_per_event_p50"] = float64(rounds)
		distLayerStats(r, counters, tracedRounds, tracedRoundMs, tracedSuppressed)
		if err := distInproc(r, w, rounds, want); err != nil {
			return err
		}
		runCoreRungs(r, w, w, 0)
		if err := runTransportRungs(r, w, counters); err != nil {
			return err
		}
	}
	return nil
}

// distLayerStats turns the decorators' counts over the traced episodes into
// the dist, transport and wire readings.
func distLayerStats(r *run, c *netCounters, rounds int, per []float64, suppressed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rounds == 0 {
		return
	}
	sends := float64(len(c.sendUs))
	r.layer["dist.round_ms_p50"] = median(per)
	r.layer["dist.round_ms_p95"] = percentile(per, 95)
	r.samples["dist.round_ms_p95"] = len(per)
	r.layer["dist.msgs_per_round"] = sends / float64(rounds)
	r.layer["dist.delta_suppressed_ratio"] = ratio(suppressed, len(c.sendUs))
	r.layer["transport.sends"] = sends
	r.layer["transport.send_errors"] = float64(c.sendErrors)
	r.layer["transport.send_us_p50"] = median(c.sendUs)
	r.layer["transport.send_us_p99"] = percentile(c.sendUs, 99)
	r.samples["transport.send_us_p99"] = len(c.sendUs)
	r.layer["wire.frames_per_round"] = float64(c.frames) / float64(rounds)
	r.layer["wire.bytes_per_round"] = float64(c.bytes) / float64(rounds)
	r.layer["wire.bytes_per_frame"] = float64(c.bytes) / math.Max(float64(c.frames), 1)
}

// distInproc runs the same episode over the in-process network with the
// same codec: the round with the kernel's sockets taken out.
func distInproc(r *run, w *workload.Workload, rounds int, want core.Snapshot) error {
	net := transport.NewInproc(transport.InprocConfig{})
	net.SetCodec(dist.WireCodec(w, nil))
	rt, err := dist.New(w, core.Config{}, net)
	if err != nil {
		return fmt.Errorf("dist-tcp: in-process episode: %w", err)
	}
	start := time.Now()
	res, err := rt.Run(rounds)
	d := time.Since(start)
	_ = rt.Close() // in-process endpoints: Close cannot fail
	if err != nil {
		return fmt.Errorf("dist-tcp: in-process episode: %w", err)
	}
	r.countOp()
	r.check(bitsEqual2(res.LatMs, want.LatMs) && bitsEqual(res.Mu, want.Mu), "in-process episode differs from core.Engine")
	r.layer["dist.inproc_round_ms"] = ms(d) / float64(rounds)
	return nil
}

// pingPong measures n request/reply round trips between two endpoints of
// net, in microseconds.
func pingPong(net transport.Network, n int) ([]float64, time.Duration, error) {
	start := time.Now()
	a, err := net.Endpoint("a")
	if err != nil {
		return nil, 0, err
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	echoed := make(chan error, 1)
	go func() {
		for m := range b.Recv() {
			if err := b.Send("a", "pong", m.Payload); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	rtt := make([]float64, 0, n)
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		if err = a.Send("b", "ping", i); err != nil {
			break
		}
		select {
		case <-a.Recv():
			rtt = append(rtt, float64(time.Since(t0))/float64(time.Microsecond))
		case <-time.After(5 * time.Second):
			err = fmt.Errorf("ping %d: no reply within 5s", i)
		}
	}
	b.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	return rtt, setup, err
}

// runTransportRungs replays the transport and wire rungs alone: endpoint
// set-up and request/reply round trips over TCP loopback and in process,
// then encode and decode of the frames the traced episodes really sent.
func runTransportRungs(r *run, w *workload.Workload, c *netCounters) error {
	root := r.rungSpans()
	defer func() { r.tr.end(root); r.tr.enable(false, -1) }()
	iter := r.tr.begin("iterate", root)
	defer r.tr.end(iter)
	pings := max(r.o.scaled(5000), 200)

	codec := dist.WireCodec(w, nil)
	var rtt []float64
	var setup time.Duration
	var err error
	r.tr.timed("transport.tcp_rtt*", iter, func(int) {
		rtt, setup, err = pingPong(loopbackTCP([]string{"a", "b"}, codec), pings)
	})
	if err != nil {
		return fmt.Errorf("dist-tcp: TCP round trips: %w", err)
	}
	r.layer["transport.endpoint_setup_ms"] = ms(setup) / 2
	r.layer["transport.tcp_rtt_us_p50"] = median(rtt)
	r.layer["transport.tcp_rtt_us_p99"] = percentile(rtt, 99)
	r.samples["transport.tcp_rtt_us_p99"] = len(rtt)

	r.tr.timed("transport.inproc_rtt*", iter, func(int) {
		net := transport.NewInproc(transport.InprocConfig{})
		net.SetCodec(codec)
		rtt, _, err = pingPong(net, pings)
	})
	if err != nil {
		return fmt.Errorf("dist-tcp: in-process round trips: %w", err)
	}
	r.layer["transport.inproc_rtt_us_p50"] = median(rtt)

	c.mu.Lock()
	msgs, frames := c.samples, c.encoded
	c.mu.Unlock()
	if len(msgs) == 0 {
		return nil
	}
	const passes = 25
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	d := r.tr.timed("wire.encode*", iter, func(int) {
		for p := 0; p < passes && err == nil; p++ {
			for _, m := range msgs {
				var f []byte
				if f, err = codec.Encode(m); err != nil {
					break
				}
				sink += float64(len(f))
			}
		}
	})
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return fmt.Errorf("dist-tcp: re-encoding a sent frame: %w", err)
	}
	n := float64(passes * len(msgs))
	r.layer["wire.encode_ns_per_frame"] = float64(d) / n
	r.layer["wire.encode_allocs_per_frame"] = float64(mem1.Mallocs-mem0.Mallocs) / n

	stream := bytes.Join(frames, nil)
	rd := bufio.NewReader(bytes.NewReader(nil))
	d = r.tr.timed("wire.decode*", iter, func(int) {
		for p := 0; p < passes && err == nil; p++ {
			rd.Reset(bytes.NewReader(stream))
			for range frames {
				if _, err = codec.Read(rd); err != nil {
					break
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("dist-tcp: decoding a sent frame: %w", err)
	}
	r.layer["wire.decode_ns_per_frame"] = float64(d) / n
	return nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func bitsEqual2(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

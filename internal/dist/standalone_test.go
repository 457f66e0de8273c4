package dist

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// Standalone nodes (one goroutine per process stand-in) without a
// coordinator must complete the protocol and agree with the engine.
func TestStandaloneNodesMatchEngine(t *testing.T) {
	const rounds = 150
	w := workload.Prototype()
	// Nodes start in arbitrary goroutine order; the registration wait lets
	// early broadcasts find late endpoints (as TCP's dial retry does).
	net := transport.NewInproc(transport.InprocConfig{RegistrationWait: 10 * time.Second})

	var wg sync.WaitGroup
	mus := make([]float64, len(w.Resources))
	utilities := make([]float64, len(w.Tasks))
	lats := make([]map[string]float64, len(w.Tasks))
	errs := make(chan error, len(w.Resources)+len(w.Tasks))

	for ri, r := range w.Resources {
		wg.Add(1)
		go func(ri int, id string) {
			defer wg.Done()
			mu, err := RunResource(context.Background(), w, core.Config{}, net, id, rounds, nil)
			if err != nil {
				errs <- err
				return
			}
			mus[ri] = mu
		}(ri, r.ID)
	}
	for ti, tk := range w.Tasks {
		wg.Add(1)
		go func(ti int, name string) {
			defer wg.Done()
			l, u, err := RunController(context.Background(), w, core.Config{}, net, name, rounds, nil)
			if err != nil {
				errs <- err
				return
			}
			lats[ti] = l
			utilities[ti] = u
		}(ti, tk.Name)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("standalone protocol stalled")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	e, err := core.NewEngine(workload.Prototype(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rounds, nil)
	want := e.Snapshot()
	for ti, tk := range w.Tasks {
		for si, s := range tk.Subtasks {
			if d := math.Abs(lats[ti][s.Name] - want.LatMs[ti][si]); d > 1e-9 {
				t.Errorf("%s.%s: standalone %v engine %v", tk.Name, s.Name, lats[ti][s.Name], want.LatMs[ti][si])
			}
		}
		if d := math.Abs(utilities[ti] - want.TaskUtility[ti]); d > 1e-9 {
			t.Errorf("%s utility: standalone %v engine %v", tk.Name, utilities[ti], want.TaskUtility[ti])
		}
	}
	for ri := range w.Resources {
		if d := math.Abs(mus[ri] - want.Mu[ri]); d > 1e-9 {
			t.Errorf("mu[%d]: standalone %v engine %v", ri, mus[ri], want.Mu[ri])
		}
	}
}

func TestStandaloneUnknownNames(t *testing.T) {
	w := workload.Base()
	net := transport.NewInproc(transport.InprocConfig{})
	if _, err := RunResource(context.Background(), w, core.Config{}, net, "nope", 10, nil); err == nil {
		t.Error("unknown resource should fail")
	}
	if _, _, err := RunController(context.Background(), w, core.Config{}, net, "nope", 10, nil); err == nil {
		t.Error("unknown task should fail")
	}
	bad := workload.Base()
	bad.Tasks = nil
	if _, err := RunResource(context.Background(), bad, core.Config{}, net, "r0", 10, nil); err == nil {
		t.Error("invalid workload should fail")
	}
}

// A standalone node refuses a run of no rounds, as Runtime.Run does. (A node
// that ran instead would wait for its silent peers until the context ends,
// then stop without an error.)
func TestStandaloneRefusesNonPositiveRounds(t *testing.T) {
	w := workload.Base()
	// The resource's peers are up, so its sends succeed.
	resNet := transport.NewInproc(transport.InprocConfig{QueueLen: 1024})
	for _, tk := range w.Tasks {
		ep, err := resNet.Endpoint(controllerAddr(tk.Name))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
	}
	for _, rounds := range []int{0, -3} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		if _, err := RunResource(ctx, w, core.Config{}, resNet, "r0", rounds, nil); err == nil {
			t.Errorf("resource with %d rounds: no error", rounds)
		}
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
		if _, _, err := RunController(ctx, w, core.Config{}, transport.NewInproc(transport.InprocConfig{}), "task1", rounds, nil); err == nil {
			t.Errorf("controller with %d rounds: no error", rounds)
		}
		cancel()
	}
}

func TestAddressesCoverDeployment(t *testing.T) {
	w := workload.Base()
	addrs := Addresses(w)
	want := 1 + len(w.Tasks) + len(w.Resources)
	if len(addrs) != want {
		t.Fatalf("addresses = %d, want %d", len(addrs), want)
	}
	seen := make(map[string]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("duplicate address %q", a)
		}
		seen[a] = true
	}
	if !seen["coordinator"] || !seen["ctl/task1"] || !seen["res/r0"] {
		t.Errorf("missing expected addresses: %v", addrs)
	}
}

// leaveOnFin is a resource's endpoint whose peers behave like a controller at
// the end of linger: the moment a fin is delivered the controller has its
// complete fin set, leaves, and closes its endpoint.
type leaveOnFin struct {
	transport.Endpoint
	peers map[string]transport.Endpoint
}

func (e leaveOnFin) Send(to, kind string, payload any) error {
	err := e.Endpoint.Send(to, kind, payload)
	if err == nil && kind == wire.KindFin {
		e.peers[to].Close()
	}
	return err
}

// TestSendFinsToleratesDepartedControllers pins the standalone flake's cause:
// every controller leaves after fin copy 1 while the resource still owes
// copies 2 and 3. Those must neither wait out RegistrationWait for an
// endpoint that is gone rather than late, nor turn the departure into an
// error: in the machine's effects only the first copy is a must send, and
// the real driver lets the others fail. A controller that is gone before a
// must send is still reported, at once.
func TestSendFinsToleratesDepartedControllers(t *testing.T) {
	cfg := core.Config{}.WithDefaults()
	p, err := core.Compile(workload.Prototype(), cfg.WeightMode)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc(transport.InprocConfig{RegistrationWait: 10 * time.Second})
	ep, err := net.Endpoint(resourceAddr(p.Resources[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	node := func() *resourceNode {
		n := newResourceNode(p, 0, cfg, addressesOf(p))
		n.fp, n.rng, n.limit = DefaultFaultPolicy(), transport.NewJitter(n.addr), 100
		return n
	}
	n := node()
	if len(n.peers) < 2 {
		t.Fatalf("resource 0 serves %d controllers; the case needs several", len(n.peers))
	}
	peers := make(map[string]transport.Endpoint)
	for _, addr := range n.peers {
		if peers[addr], err = net.Endpoint(addr); err != nil {
			t.Fatal(err)
		}
	}
	// A stop after round 0 is already waiting: the node opens round 0, reads
	// it, and goes straight to its fins.
	halt := transport.Message{From: coordinatorAddr, Kind: wire.KindStop, Payload: wire.Stop{AfterRound: 0}}
	if err := peers[n.peers[0]].Send(n.addr, halt.Kind, halt.Payload); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := drive(n, leaveOnFin{ep, peers}, nil, nil); err != nil {
		t.Fatalf("resource whose controllers all left on fin copy 1: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the fins took %v: the node waited for endpoints that had closed", d)
	}
	for addr, peer := range peers {
		fins := 0
		for m := range peer.Recv() {
			if m.Kind == wire.KindFin {
				fins++
			}
		}
		if fins != 1 {
			t.Errorf("%s received %d fins before leaving, want 1", addr, fins)
		}
	}

	// The effects say which copies may fail: the first to each controller
	// must arrive, the repeats need not.
	n = node()
	n.step(0, event{kind: evStart})
	eff := n.step(0, event{kind: evMessage, msg: halt})
	if !eff.done || eff.err != nil || len(eff.sends) != 3*len(n.peers) {
		t.Fatalf("stop after round 0: done=%v err=%v sends=%d, want the node done after 3 fin copies per controller",
			eff.done, eff.err, len(eff.sends))
	}
	for i, s := range eff.sends {
		if s.kind != wire.KindFin || s.must != (i < len(n.peers)) {
			t.Errorf("send %d: kind %s must=%v", i, s.kind, s.must)
		}
	}

	// Every controller is gone now: the next node's first must send fails,
	// and fails fast.
	start = time.Now()
	if err := drive(node(), ep, nil, nil); err == nil {
		t.Error("a must send to controllers that are gone reported no error")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the failing send took %v", d)
	}
}

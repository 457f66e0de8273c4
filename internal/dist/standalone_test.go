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
			mu, err := RunResource(context.Background(), w, core.Config{}, net, id, rounds)
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
			l, u, err := RunController(context.Background(), w, core.Config{}, net, name, rounds)
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
	if _, err := RunResource(context.Background(), w, core.Config{}, net, "nope", 10); err == nil {
		t.Error("unknown resource should fail")
	}
	if _, _, err := RunController(context.Background(), w, core.Config{}, net, "nope", 10); err == nil {
		t.Error("unknown task should fail")
	}
	bad := workload.Base()
	bad.Tasks = nil
	if _, err := RunResource(context.Background(), bad, core.Config{}, net, "r0", 10); err == nil {
		t.Error("invalid workload should fail")
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
// error. A controller that is gone before copy 1 is still reported.
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
	peers := make(map[string]transport.Endpoint)
	n := newResourceNode(p, 0, cfg, leaveOnFin{ep, peers})
	n.fp = DefaultFaultPolicy()
	if len(n.controllers) < 2 {
		t.Fatalf("resource 0 serves %d controllers; the case needs several", len(n.controllers))
	}
	for _, tn := range n.controllers {
		if peers[controllerAddr(tn)], err = net.Endpoint(controllerAddr(tn)); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	if err := n.sendFins(); err != nil {
		t.Fatalf("sendFins after every controller left on copy 1: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("sendFins took %v: it waited for endpoints that had closed", d)
	}
	for addr, peer := range peers {
		fins := 0
		for range peer.Recv() {
			fins++
		}
		if fins != 1 {
			t.Errorf("%s received %d fins before leaving, want 1", addr, fins)
		}
	}

	start = time.Now()
	if err := n.sendFins(); err == nil {
		t.Error("sendFins to controllers gone before the first copy reported no error")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("failing sendFins took %v", d)
	}
}

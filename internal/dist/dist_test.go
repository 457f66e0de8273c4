package dist

import (
	"math"
	"testing"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The round-synchronized distributed runtime must reproduce the synchronous
// engine iterate-for-iterate over a loss-free in-order network.
func TestDistMatchesEngineExactly(t *testing.T) {
	const rounds = 200
	w := workload.Base()

	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rounds, nil)
	want := e.Snapshot()

	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}

	if res.Rounds != rounds {
		t.Fatalf("completed %d rounds, want %d", res.Rounds, rounds)
	}
	for ti := range want.LatMs {
		for si := range want.LatMs[ti] {
			if d := math.Abs(res.LatMs[ti][si] - want.LatMs[ti][si]); d > 1e-9 {
				t.Errorf("lat[%d][%d]: dist %v engine %v", ti, si, res.LatMs[ti][si], want.LatMs[ti][si])
			}
		}
	}
	for ri := range want.Mu {
		if d := math.Abs(res.Mu[ri] - want.Mu[ri]); d > 1e-9 {
			t.Errorf("mu[%d]: dist %v engine %v", ri, res.Mu[ri], want.Mu[ri])
		}
	}
	if d := math.Abs(res.Utility - want.Utility); d > 1e-6 {
		t.Errorf("utility: dist %v engine %v", res.Utility, want.Utility)
	}
}

// Message delay with jitter reorders deliveries, but the round protocol
// must still produce the engine's state bit for bit.
func TestDistTolerantOfDeliveryDelay(t *testing.T) {
	const rounds = 50
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 3, DelayMs: 1, DelayJitterMs: 1})
	res := mustRun(t, rt, rounds)
	assertMatchesEngineBitwise(t, workload.Base(), res, rounds)
	if st := rt.Sim().Stats(); st.Delayed == 0 || st.Dropped != 0 {
		t.Errorf("stats: %s, want delays and no loss", st)
	}
}

func TestDistConvergenceStop(t *testing.T) {
	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.RunUntilKKT(3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}
	if res.Rounds >= 3000 {
		t.Errorf("convergence stop did not shorten the run: %d rounds", res.Rounds)
	}
	// Converged utility matches the engine's optimum.
	if math.Abs(res.Utility-188.73) > 0.5 {
		t.Errorf("converged utility = %.2f, want ≈188.73", res.Utility)
	}
}

func TestDistOverTCP(t *testing.T) {
	w := workload.Base()
	registry := map[string]string{coordinatorAddr: "127.0.0.1:0"}
	for _, tk := range w.Tasks {
		registry[controllerAddr(tk.Name)] = "127.0.0.1:0"
	}
	for _, r := range w.Resources {
		registry[resourceAddr(r.ID)] = "127.0.0.1:0"
	}
	rt, err := New(w, core.Config{}, transport.NewTCP(registry))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const rounds = 100
	res, err := rt.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEngine(workload.Base(), core.Config{})
	e.Run(rounds, nil)
	want := e.Snapshot()
	if d := math.Abs(res.Utility - want.Utility); d > 1e-6 {
		t.Errorf("TCP utility %v, engine %v", res.Utility, want.Utility)
	}
}

func TestDistRejectsBadInputs(t *testing.T) {
	w := workload.Base()
	w.Tasks = nil
	if _, err := New(w, core.Config{}, transport.NewInproc(transport.InprocConfig{})); err == nil {
		t.Error("invalid workload should fail")
	}

	rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(0); err == nil {
		t.Error("zero rounds should fail")
	}
}

func TestDistDuplicateEndpointRegistration(t *testing.T) {
	net := transport.NewInproc(transport.InprocConfig{})
	if _, err := New(workload.Base(), core.Config{}, net); err != nil {
		t.Fatal(err)
	}
	// A second runtime on the same network collides on endpoint names.
	if _, err := New(workload.Base(), core.Config{}, net); err == nil {
		t.Error("duplicate endpoints should fail")
	}
}

// Address naming is deterministic and collision-free across node types.
func TestAddressNaming(t *testing.T) {
	if resourceAddr("x") == controllerAddr("x") {
		t.Error("resource and controller addresses must differ")
	}
	if resourceAddr("a") == resourceAddr("b") {
		t.Error("distinct resources must have distinct addresses")
	}
}

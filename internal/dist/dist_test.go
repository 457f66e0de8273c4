package dist

import (
	"math"
	"strings"
	"testing"
	"time"

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
		t.Errorf("stats: %+v, want delays and no loss", st)
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

// loopbackTCP is a TCP network with every address of w on a loopback port.
func loopbackTCP(w *workload.Workload) *transport.TCP {
	registry := make(map[string]string)
	for _, addr := range Addresses(w) {
		registry[addr] = "127.0.0.1:0"
	}
	return transport.NewTCP(registry)
}

func TestDistOverTCP(t *testing.T) {
	w := workload.Base()
	net := loopbackTCP(w)
	net.SetCodec(WireCodec(w, nil))
	rt, err := New(w, core.Config{}, net)
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

// TestDistOverTCPWithoutDictionaryFails: over a TCP network whose codec
// lacks the workload's dictionary, the first price fails to encode, and the
// run ends with that error instead of waiting on the failed node forever.
func TestDistOverTCPWithoutDictionaryFails(t *testing.T) {
	w := workload.Base()
	rt, err := New(w, core.Config{}, loopbackTCP(w))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run(20)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "not in the dictionary") {
			t.Fatalf("Run = %v, want an error naming the missing dictionary entry", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run still waiting 20 s after a node failed")
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

// A runtime's nodes are spent after one run: every later run is an error,
// not a zero-round Result carrying the first run's state.
func TestRuntimeRunsOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   func(t *testing.T) *Runtime
	}{
		{"New", func(t *testing.T) *Runtime {
			rt, err := New(workload.Base(), core.Config{}, transport.NewInproc(transport.InprocConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rt.Close() })
			return rt
		}},
		{"NewSim", func(t *testing.T) *Runtime { return simRuntime(t, workload.Base(), transport.ChaosConfig{Seed: 1}) }},
	} {
		rt := tc.rt(t)
		mustRun(t, rt, 20)
		for again, run := range map[string]func() (*Result, error){
			"Run":             func() (*Result, error) { return rt.Run(20) },
			"RunUntilKKT":     func() (*Result, error) { return rt.RunUntilKKT(20) },
			"RunWithFailover": func() (*Result, error) { return rt.RunWithFailover(20, FailoverPlan{}) },
		} {
			if res, err := run(); err == nil {
				t.Errorf("%s: %s after Run returned %+v and no error", tc.name, again, res)
			}
		}
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

package dist

import (
	"testing"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/workload"
)

// The delta-codec suite pins the tentpole's dist contract: delta-encoded
// price broadcasts and coalesced share reports change bytes on the wire,
// never bits in the result — loss-free and chaos runs alike must stay
// bitwise identical to the dense protocol and to the engine.

// frozenWorkload is a replication of the base workload that reaches a global
// bitwise fixed point (around iteration 115), so a long enough run is
// guaranteed to exercise the delta markers heavily.
func frozenWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// assertMatchesEngineBitwise compares a dist result against the serial
// engine on the same workload with exact float equality: the delta codec's
// markers must be indistinguishable from full payloads, and Go's JSON
// encoding round-trips float64 exactly, so nothing may drift even an ulp.
func assertMatchesEngineBitwise(t *testing.T, w *workload.Workload, res *Result, rounds int) {
	t.Helper()
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(rounds, nil)
	want := e.Snapshot()
	for ti := range want.LatMs {
		for si := range want.LatMs[ti] {
			if res.LatMs[ti][si] != want.LatMs[ti][si] {
				t.Errorf("lat[%d][%d]: dist %x engine %x", ti, si, res.LatMs[ti][si], want.LatMs[ti][si])
			}
		}
	}
	for ri := range want.Mu {
		if res.Mu[ri] != want.Mu[ri] {
			t.Errorf("mu[%d]: dist %x engine %x", ri, res.Mu[ri], want.Mu[ri])
		}
	}
}

// Loss-free run with the codec on (the default): past the freeze point every
// non-keyframe broadcast is a marker, so the run must report substantial
// suppression while remaining bitwise equal to the engine.
func TestDeltaLossFreeBitwiseAndSaves(t *testing.T) {
	const rounds = 200
	w := frozenWorkload(t)
	rt, err := New(w, core.Config{}, transport.NewInproc(transport.InprocConfig{QueueLen: 16384}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEngineBitwise(t, frozenWorkload(t), res, rounds)
	if res.DeltaSuppressed == 0 {
		t.Error("frozen 200-round run sent no delta markers")
	}
	if res.DeltaBytesSaved == 0 {
		t.Error("delta markers saved no encoded bytes")
	}
}

// Chaos-mode delta recovery: under loss, duplication and reordering the
// reliability layer re-sends cached full payloads (never markers) and
// keyframes bound marker chains, so the run reconverges to the exact same
// fixed point bitwise while still suppressing payloads past the freeze.
func TestDeltaChaosReconvergesBitwise(t *testing.T) {
	const rounds = 160
	rt := simRuntime(t, frozenWorkload(t), transport.ChaosConfig{
		Seed:          19,
		LossRate:      0.08,
		DupRate:       0.08,
		DelayMs:       0.2,
		DelayJitterMs: 0.3,
		ReorderRate:   0.08,
	})
	res := mustRun(t, rt, rounds)
	assertMatchesEngineBitwise(t, frozenWorkload(t), res, rounds)
	if res.DeltaSuppressed == 0 {
		t.Error("chaos run past the freeze point sent no delta markers")
	}
	if res.Retransmits == 0 {
		t.Error("8% loss over 160 rounds recovered without a single retransmit")
	}
}

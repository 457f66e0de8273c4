package dist

import (
	"testing"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// TestWireCodecCoversWorkloadDict: the codec built from a workload indexes
// every resource, task and subtask, so no frame of a run names an id the
// dictionary lacks.
func TestWireCodecCoversWorkloadDict(t *testing.T) {
	w := workload.Base()
	reg := obs.NewRegistry()
	c := WireCodec(w, reg)
	want := wire.NewCodec(mustDict(t, w))
	if got, exp := c.Hello(), want.Hello(); len(got) != len(exp) || string(got) != string(exp) {
		t.Fatal("workload codec hello differs from a hand-built dict codec")
	}
}

func mustDict(t *testing.T, w *workload.Workload) *wire.Dict {
	t.Helper()
	resources := make([]string, len(w.Resources))
	for i, r := range w.Resources {
		resources[i] = r.ID
	}
	tasks := make([]string, len(w.Tasks))
	subs := make([][]string, len(w.Tasks))
	for i, task := range w.Tasks {
		tasks[i] = task.Name
		subs[i] = make([]string, len(task.Subtasks))
		for j, s := range task.Subtasks {
			subs[i][j] = s.Name
		}
	}
	d, err := wire.NewDict(resources, tasks, subs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDistBinaryWireMatchesEngineAllSolvers: with every delivery round-
// tripped through the binary codec, the distributed runtime still
// reproduces the serial engine bitwise for every price solver.
func TestDistBinaryWireMatchesEngineAllSolvers(t *testing.T) {
	const rounds = 150
	for _, s := range price.Solvers() {
		t.Run(string(s), func(t *testing.T) {
			cfg := core.Config{PriceSolver: s}
			e, err := core.NewEngine(workload.Base(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Run(rounds, nil)
			want := e.Snapshot()

			reg := obs.NewRegistry()
			net := transport.NewInproc(transport.InprocConfig{})
			net.SetCodec(WireCodec(workload.Base(), reg))
			rt, err := New(workload.Base(), cfg, net)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			res, err := rt.Run(rounds)
			if err != nil {
				t.Fatal(err)
			}

			for ri := range want.Mu {
				if res.Mu[ri] != want.Mu[ri] {
					t.Errorf("mu[%d]: dist %x engine %x", ri, res.Mu[ri], want.Mu[ri])
				}
			}
			for ti := range want.LatMs {
				for si := range want.LatMs[ti] {
					if res.LatMs[ti][si] != want.LatMs[ti][si] {
						t.Errorf("lat[%d][%d]: dist %x engine %x",
							ti, si, res.LatMs[ti][si], want.LatMs[ti][si])
					}
				}
			}
			if res.Utility != want.Utility {
				t.Errorf("utility: dist %x engine %x", res.Utility, want.Utility)
			}
			if reg.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "decode").Value() == 0 {
				t.Error("no binary frames decoded: codec was bypassed")
			}
			if raw := reg.Counter("lla_wire_raw_frames_total", "Messages carried by the RAW escape-hatch frame.").Value(); raw != 0 {
				t.Errorf("%d dist messages fell back to RAW framing", raw)
			}
		})
	}
}

// TestDistBinaryWireChaosMatchesEngine: binary framing under seeded loss,
// duplication, delay, and reordering — every virtual delivery round-trips
// through the codec, retransmitted frames re-encode, and the result still
// matches the engine bitwise (within the chaos-suite tolerance).
func TestDistBinaryWireChaosMatchesEngine(t *testing.T) {
	const rounds = 80
	rt := simRuntime(t, workload.Base(), transport.ChaosConfig{
		Seed:          7,
		LossRate:      0.10,
		DupRate:       0.10,
		DelayMs:       0.3,
		DelayJitterMs: 0.5,
		ReorderRate:   0.10,
	})
	reg := obs.NewRegistry()
	rt.Observe(&obs.Observer{Metrics: reg})
	res := mustRun(t, rt, rounds)
	assertMatchesEngine(t, res, rounds)
	if res.Retransmits == 0 {
		t.Error("10% loss over 80 rounds recovered without a single retransmit")
	}
	if reg.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "decode").Value() == 0 {
		t.Error("chaos run decoded no binary frames")
	}
	if raw := reg.Counter("lla_wire_raw_frames_total", "Messages carried by the RAW escape-hatch frame.").Value(); raw != 0 {
		t.Errorf("%d dist messages fell back to RAW framing", raw)
	}
}

// TestDistWireMessagesNeverRideRaw: every message kind dist emits, with the
// payload type dist sends under it, encodes to a dedicated binary frame; if
// a schema change reintroduces RAW fallback for control traffic, this
// catches it by name.
func TestDistWireMessagesNeverRideRaw(t *testing.T) {
	w := workload.Base()
	codec := WireCodec(w, nil)
	res, task := w.Resources[0].ID, w.Tasks[0].Name
	for kind, payload := range map[string]any{
		wire.KindPrice: wire.PriceUpdate{Resource: res, Mu: 1}, wire.KindLatency: wire.ShareReport{Task: task}, wire.KindReport: wire.UtilityReport{Task: task},
		wire.KindStop: wire.Stop{}, wire.KindFin: wire.Fin{Resource: res}, wire.KindRejoin: wire.Rejoin{}, wire.KindRejoinAck: wire.RejoinAck{Task: task},
	} {
		frame, err := codec.Encode(wire.Message{From: coordinatorAddr, To: coordinatorAddr, Kind: kind, Payload: payload})
		if err != nil || frame[2] == wire.FrameRaw {
			t.Errorf("dist kind %q has no dedicated frame type (%v)", kind, err)
		}
	}
}

package recover

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// The vectors in testdata were written by older codecs from workload.Base()
// with Seed 7 and one serial worker:
//   - ckpt_v1_{gradient,newton}.bin by the version-1 codec (the gradient's
//     per-resource agent step sizes beside an optional Dynamics state), after
//     12 Steps;
//   - ckpt_v2_newton.bin by the version-2 codec (one Dynamics state followed by
//     an empty Anderson mixing window), after 6 Steps, where Newton's
//     safeguard holds non-zero halvings;
//   - ckpt_v2_anderson.bin by the version-2 codec under the Anderson solver,
//     after 12 Steps.
//
// The current codec must decode all but the last, which names a solver that
// no longer exists.

// v1GradientMu are the prices, bit for bit, that the version-1 engine reached
// 30 Steps after writing ckpt_v1_gradient.bin.
var v1GradientMu = []uint64{
	0x4041daa3c413a62b, 0x403e306ca4b5afc7, 0x4032f14b22b3f75c, 0x40217c3b4f8b48bc,
	0x4041a7ecc364ef56, 0x401bbb0957234cb7, 0x403ecf86f833c761, 0x4035f2529855ffc4,
}

// TestV1CheckpointsRestore decodes every older-format vector, restores it,
// re-encodes it as the current version without losing a bit, and resumes.
// The gradient vector resumes bitwise on the trajectory the writing engine
// took. The Newton vectors' trajectories changed when Newton began treating
// a rounding-level excess as zero, so they resume bitwise with their own
// current-version re-encoding, the version-2 vector's decoded halvings must
// reach the dynamics, and both certify. (The version-1 format did not hold
// the safeguard, so that vector restarts it cleared.)
func TestV1CheckpointsRestore(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		version    uint16
		solver     price.Solver
		iteration  int
		mu         []uint64
	}{
		{"gradient", "ckpt_v1_gradient.bin", 1, price.SolverGradient, 12, v1GradientMu},
		{"newton", "ckpt_v1_newton.bin", 1, price.SolverNewton, 12, nil},
		{"v2-newton", "ckpt_v2_newton.bin", 2, price.SolverNewton, 6, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := os.ReadFile("testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(b[len(ckptMagic):]); v != tc.version {
				t.Fatalf("vector is version %d, want %d", v, tc.version)
			}
			cp, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Solver != tc.solver || cp.Seed != 7 || cp.Engine.Iteration != tc.iteration || cp.Engine.Dyn.Solver != tc.solver {
				t.Fatalf("decoded solver %s/%s, seed %d, iteration %d", cp.Solver, cp.Engine.Dyn.Solver, cp.Seed, cp.Engine.Iteration)
			}
			if tc.version == 2 && !slices.ContainsFunc(cp.Engine.Dyn.Halvings, func(h uint8) bool { return h != 0 }) {
				t.Fatal("version-2 vector carries no safeguard history")
			}
			eng, err := Restore(cp, core.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			again, err := Capture(eng, CaptureOptions{Seed: 7}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(again[len(ckptMagic):]); v != ckptVersion {
				t.Fatalf("re-encoded as version %d, want %d", v, ckptVersion)
			}
			cp2, err := Decode(again)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cp2.Engine, cp.Engine) {
				t.Fatalf("version-%d round trip changed the state:\n old %+v\n new %+v", ckptVersion, cp.Engine, cp2.Engine)
			}

			if tc.mu == nil {
				resumeNewton(t, b, cp2, eng, tc.version == 2)
				return
			}
			fresh, err := core.NewEngine(workload.Base(), core.Config{Workers: 1, PriceSolver: tc.solver})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			fresh.Run(tc.iteration, nil)
			for i := 0; i < 30; i++ {
				fresh.Step()
				eng.Step()
				requireProbeEqual(t, i, fresh, eng)
			}
			for ri, mu := range eng.Snapshot().Mu {
				if math.Float64bits(mu) != tc.mu[ri] {
					t.Fatalf("resource %d: price %v after %d Steps, the writing engine reached %v",
						ri, mu, tc.iteration+30, math.Float64frombits(tc.mu[ri]))
				}
			}
		})
	}
}

// resumeNewton holds a restored Newton vector (raw bytes b, engine eng) to
// its current-version re-encoding cp2: a second engine restored from cp2
// steps 30 times bitwise with eng. With checkHalvings, a copy restored with
// the decoded halvings cleared must price differently after one Step, or the
// halvings never reached the dynamics. eng then certifies.
func resumeNewton(t *testing.T, b []byte, cp2 *Checkpoint, eng *core.Engine, checkHalvings bool) {
	t.Helper()
	again, err := Restore(cp2, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	var cleared *core.Engine
	if checkHalvings {
		cpc, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		clear(cpc.Engine.Dyn.Halvings)
		if cleared, err = Restore(cpc, core.Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		defer cleared.Close()
		cleared.Step()
	}
	for i := 0; i < 30; i++ {
		eng.Step()
		again.Step()
		requireProbeEqual(t, i, eng, again)
		if i == 0 && cleared != nil && slices.Equal(cleared.Snapshot().Mu, eng.Snapshot().Mu) {
			t.Fatal("clearing the decoded halvings changed no price: they never reached the dynamics")
		}
	}
	want := again.Snapshot().Mu
	for ri, mu := range eng.Snapshot().Mu {
		if math.Float64bits(mu) != math.Float64bits(want[ri]) {
			t.Fatalf("resource %d: price %v after 30 Steps, its re-encoding reached %v", ri, mu, want[ri])
		}
	}
	if _, ok := eng.RunUntilKKT(2000, 1e-9, 3, 1e-6); !ok {
		t.Fatal("restored engine did not certify")
	}
}

// TestAndersonCheckpointsAreRejected: a checkpoint of the removed Anderson
// solver decodes to an error naming it — the parent codec's vector, and a
// hand-built version-2 payload that claims the gradient but carries a
// non-empty mixing window. The same payload with an empty window decodes.
func TestAndersonCheckpointsAreRejected(t *testing.T) {
	b, err := os.ReadFile("testdata/ckpt_v2_anderson.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "anderson") {
		t.Fatalf("Anderson vector decoded to %v, want an error naming anderson", err)
	}

	eng := newRunEngine(t, price.SolverGradient, 5)
	cur, err := Capture(eng, CaptureOptions{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The current payload ends with the engine section and a zero admission
	// tag; version 2 held the mixing window in between.
	pay := cur[len(ckptMagic)+2+4 : len(cur)-4]
	v2 := func(window int64) []byte {
		var p payload
		p.raw(pay[:len(pay)-1])
		p.i64(window)
		p.u32(0)     // fill counts
		p.f64s(nil)  // iterates
		p.f64s(nil)  // residuals
		p.bools(nil) // accept flags
		p.f64s(nil)  // residual magnitudes
		p.u8(0)      // no admission state
		out := append([]byte(ckptMagic), 2, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.b)))
		out = append(out, p.b...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p.b))
	}
	empty, err := Decode(v2(0))
	if err != nil {
		t.Fatalf("version-2 gradient payload with an empty window: %v", err)
	}
	want, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty.Engine, want.Engine) {
		t.Fatal("version-2 payload decoded to a different state than the current one")
	}
	if _, err := Decode(v2(5)); err == nil || !strings.Contains(err.Error(), "anderson") {
		t.Fatalf("version-2 payload with a mixing window decoded to %v, want an error naming anderson", err)
	}
}

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

// v2NewtonMu are the prices, bit for bit, that the version-2 engine reached
// 30 Steps after writing ckpt_v2_newton.bin.
var v2NewtonMu = []uint64{
	0x4041f0ed37a566aa, 0x403e5b2e5e115640, 0x40330610a6bfe807, 0x40217c3b666fb66d,
	0x4041c5270da93538, 0x401bbb0962b0c0c9, 0x403ef1bd236afd3f, 0x40360f2ef6667943,
}

// TestV1CheckpointsRestore decodes every older-format vector, restores it,
// re-encodes it as the current version without losing a bit, and resumes:
// bitwise on the trajectory the writing engine took where the vector
// records one, and otherwise (version-1 Newton, whose safeguard that format
// did not hold, so it restarts cleared) to a certified fixed point.
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
		{"v2-newton", "ckpt_v2_newton.bin", 2, price.SolverNewton, 6, v2NewtonMu},
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
				if _, ok := eng.RunUntilKKT(2000, 1e-9, 3, 1e-6); !ok {
					t.Fatal("restored engine did not certify")
				}
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

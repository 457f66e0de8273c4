package recover

import (
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"testing"

	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// The vectors in testdata/ckpt_v1_*.bin were written by the version-1 codec —
// the gradient's per-resource agent step sizes beside an optional Dynamics
// state — from workload.Base() after 12 serial Steps, with Seed 7: one under
// the gradient, one under Newton. Version 2 holds one Dynamics state for
// every solver and must still decode them.

// v1GradientMu are the prices, bit for bit, that the version-1 engine reached
// 30 Steps after writing ckpt_v1_gradient.bin.
var v1GradientMu = []uint64{
	0x4041daa3c413a62b, 0x403e306ca4b5afc7, 0x4032f14b22b3f75c, 0x40217c3b4f8b48bc,
	0x4041a7ecc364ef56, 0x401bbb0957234cb7, 0x403ecf86f833c761, 0x4035f2529855ffc4,
}

// TestV1CheckpointsRestore decodes both version-1 vectors, restores them,
// re-encodes them as version 2 without losing a bit, and resumes: the
// gradient bitwise on the trajectory the version-1 engine took, Newton (whose
// safeguard version 1 did not have, so it restarts cleared) to a certified
// fixed point.
func TestV1CheckpointsRestore(t *testing.T) {
	for _, solver := range []price.Solver{price.SolverGradient, price.SolverNewton} {
		t.Run(string(solver), func(t *testing.T) {
			b, err := os.ReadFile("testdata/ckpt_v1_" + string(solver) + ".bin")
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(b[len(ckptMagic):]); v != 1 {
				t.Fatalf("vector is version %d, want 1", v)
			}
			cp, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Solver != solver || cp.Seed != 7 || cp.Engine.Iteration != 12 || cp.Engine.Dyn.Solver != solver {
				t.Fatalf("decoded solver %s/%s, seed %d, iteration %d", cp.Solver, cp.Engine.Dyn.Solver, cp.Seed, cp.Engine.Iteration)
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
				t.Fatalf("version-2 round trip changed the state:\n v1 %+v\n v2 %+v", cp.Engine, cp2.Engine)
			}

			if solver == price.SolverNewton {
				if _, ok := eng.RunUntilKKT(2000, 1e-9, 3, 1e-6); !ok {
					t.Fatal("restored Newton engine did not certify")
				}
				return
			}
			fresh, err := core.NewEngine(workload.Base(), core.Config{Workers: 1, PriceSolver: solver})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			fresh.Run(12, nil)
			for i := 0; i < 30; i++ {
				fresh.Step()
				eng.Step()
				requireProbeEqual(t, i, fresh, eng)
			}
			for ri, mu := range eng.Snapshot().Mu {
				if math.Float64bits(mu) != v1GradientMu[ri] {
					t.Fatalf("resource %d: price %v after 42 Steps, version-1 engine reached %v",
						ri, mu, math.Float64frombits(v1GradientMu[ri]))
				}
			}
		})
	}
}

package recover

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"lla/internal/admit"
	"lla/internal/byteio"
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
// ckpt_v3_newton.bin is the seed run of seedRun written by the version-3
// codec (each controller's input fingerprint in the engine section), and
// ckpt_v4_newton.bin the same run in the current format
// (TestV3CheckpointVector, TestV4CheckpointVector).
//
// The current codec must decode all but ckpt_v2_anderson.bin, which names a
// solver that no longer exists.

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
// current-version re-encoding, the version-2 vector's halvings must reach
// the dynamics, and both certify. (The version-1 format did not hold the
// safeguard, so that vector restarts it cleared.)
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
			if tc.version == 2 && !slices.ContainsFunc(v2Halvings(t, b, len(cp.Workload.Resources)), func(h byte) bool { return h != 0 }) {
				t.Fatal("version-2 vector carries no safeguard history")
			}
			eng, _, err := Restore(cp, core.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if cp.Solver != tc.solver || cp.Seed != 7 || eng.Iteration() != tc.iteration {
				t.Fatalf("decoded solver %s, seed %d, iteration %d", cp.Solver, cp.Seed, eng.Iteration())
			}

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
			if twice := reencode(t, cp2, CaptureOptions{Seed: 7}); !bytes.Equal(twice, again) {
				t.Fatalf("version-%d round trip changed the state", ckptVersion)
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

// reencode restores cp and encodes the restored engine again.
func reencode(t *testing.T, cp *Checkpoint, opts CaptureOptions) []byte {
	t.Helper()
	eng, st, err := Restore(cp, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st != nil {
		opts.Admit = admit.New(eng, admit.Config{})
		opts.Admit.RestoreState(*st)
	}
	b, err := Capture(eng, opts).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v2Halvings returns, as a window of b, the Newton halvings of the
// version-2 vector b over nr resources. The payload ends with the halvings
// and the signs (each u32-length-prefixed), the 28-byte empty mixing window
// and the 1-byte admission tag; the CRC follows it.
func v2Halvings(t *testing.T, b []byte, nr int) []byte {
	t.Helper()
	end := len(b) - 4 - 1 - 28 - (4 + nr)
	if n := binary.LittleEndian.Uint32(b[end-nr-4:]); int(n) != nr {
		t.Fatalf("halvings length prefix reads %d, want %d", n, nr)
	}
	return b[end-nr : end]
}

// reseal recomputes the CRC of an encoded checkpoint whose payload was
// patched.
func reseal(b []byte) {
	pay := b[len(ckptMagic)+2+4 : len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(pay))
}

// resumeNewton holds a restored Newton vector (raw bytes b, engine eng) to
// its current-version re-encoding cp2: a second engine restored from cp2
// steps 30 times bitwise with eng. With checkHalvings, a copy of the
// version-2 vector with its halvings cleared must price differently after
// one Step, or the halvings never reached the dynamics. eng then certifies.
func resumeNewton(t *testing.T, b []byte, cp2 *Checkpoint, eng *core.Engine, checkHalvings bool) {
	t.Helper()
	again, _, err := Restore(cp2, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	var cleared *core.Engine
	if checkHalvings {
		bc := append([]byte(nil), b...)
		clear(v2Halvings(t, bc, len(cp2.Workload.Resources)))
		reseal(bc)
		cpc, err := Decode(bc)
		if err != nil {
			t.Fatal(err)
		}
		if cleared, _, err = Restore(cpc, core.Config{Workers: 1}); err != nil {
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
			t.Fatal("clearing the halvings changed no price: they never reached the dynamics")
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
// solver is refused with an error naming it — the parent codec's vector by
// Decode (its header names the solver), and a hand-built version-2 payload
// that claims the gradient but carries a non-empty mixing window by Restore
// (the window is inside the engine section). The same payload with an empty
// window restores to the current payload's state.
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
	want, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	// The current payload ends with the engine section and a zero admission
	// tag; version 2 held the engine section in the version-3 layout and the
	// mixing window after it.
	pay, sec := cur[len(ckptMagic)+2+4:len(cur)-4], want.sections
	v2 := func(window uint64) *Checkpoint {
		w := byteio.Enc{B: append([]byte(ckptMagic), 2, 0, 0, 0, 0, 0)}
		w.B = append(w.B, pay[:len(pay)-len(sec)]...)
		w.B = append(w.B, v3Engine(eng, sec[:len(sec)-1])...)
		w.U64(window)
		for i := 0; i < 5; i++ {
			w.U32(0) // fill counts, iterates, residuals, accept flags, residual magnitudes
		}
		w.U8(0) // no admission state
		binary.LittleEndian.PutUint32(w.B[len(ckptMagic)+2:], uint32(len(w.B)-len(ckptMagic)-2-4))
		w.B = append(w.B, 0, 0, 0, 0)
		reseal(w.B)
		cp, err := Decode(w.B)
		if err != nil {
			t.Fatalf("version-2 gradient payload with window %d: %v", window, err)
		}
		return cp
	}
	if !bytes.Equal(reencode(t, v2(0), CaptureOptions{}), reencode(t, want, CaptureOptions{})) {
		t.Fatal("version-2 payload restored to a different state than the current one")
	}
	if eng, _, err := Restore(v2(5), core.Config{Workers: 1}); err == nil || !strings.Contains(err.Error(), "anderson") {
		if eng != nil {
			eng.Close()
		}
		t.Fatalf("version-2 payload with a mixing window restored with error %v, want one naming anderson", err)
	}
}

// v3Engine rewrites eng's engine section sec, current layout, in the
// version-3 layout: between the congestion flags and the sparse counters,
// each controller's input fingerprint — eng's prices and flags, one per
// subtask in compiled order, so a stable controller stays stable — and the
// six flag vectors version 3 held, built from the two current ones.
func v3Engine(eng *core.Engine, sec []byte) []byte {
	d := byteio.Dec{Buf: sec}
	d.U64()
	nt := int(d.U32())
	for i := 0; i < 4*nt+2; i++ { // per-task vectors, prices, demand sums
		d.Take(8 * int(d.U32()))
	}
	d.Take(int(d.U32())) // congestion flags
	w := byteio.Enc{B: append([]byte(nil), sec[:len(sec)-d.Remaining()]...)}
	flags := func(v []byte) []byte { return append(binary.LittleEndian.AppendUint32(nil, uint32(len(v))), v...) }
	ctl, pri := d.Take(int(d.U32())), d.Take(int(d.U32()))
	var fpMu []float64
	var fpCong []byte
	inc := core.NewIncidence(eng.Problem())
	for ti := range inc.NumTasks() {
		for _, ri := range inc.TaskResources(ti) {
			fpMu = append(fpMu, eng.MuAt(int(ri)))
			cong := byte(0)
			if eng.CongestedAt(int(ri)) {
				cong = 1
			}
			fpCong = append(fpCong, cong)
		}
	}
	w.U32(uint32(len(fpMu)))
	for _, mu := range fpMu {
		w.F64(mu)
	}
	for _, v := range [][]byte{fpCong, ctl, ctl, make([]byte, nt), pri, pri} {
		w.B = append(w.B, flags(v)...)
	}
	return append(w.B, sec[len(sec)-d.Remaining():]...)
}

// TestV3CheckpointVector: ckpt_v3_newton.bin, the seed run in the version-3
// layout, must restore to the seed run's state — its fingerprints folded
// into the fixed-point flags exactly as the run holds them — so it
// re-encodes as the current vector byte for byte, and the restored engine
// steps on bitwise with the run.
func TestV3CheckpointVector(t *testing.T) {
	b, err := os.ReadFile("testdata/ckpt_v3_newton.bin")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ckpt_v4_newton.bin")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(b[len(ckptMagic):]); v != 3 {
		t.Fatalf("vector is version %d, want 3", v)
	}
	cp, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	restored, st, err := Restore(cp, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rctrl := admit.New(restored, admit.Config{})
	rctrl.RestoreState(*st)
	again, err := Capture(restored, seedOptions(rctrl)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("the version-3 vector re-encodes to bytes that differ from the current vector")
	}
	eng, _ := seedRun(t)
	for i := 0; i < 30; i++ {
		eng.Step()
		restored.Step()
		requireProbeEqual(t, i, eng, restored)
	}
}

// TestV4CheckpointVector pins the current format: ckpt_v4_newton.bin is the
// seed run's checkpoint (see seedRun), and capturing that run again must
// reproduce it byte for byte. Decoding, restoring and re-encoding the vector
// must too, and the restored engine must step on bitwise with the run.
func TestV4CheckpointVector(t *testing.T) {
	want, err := os.ReadFile("testdata/ckpt_v4_newton.bin")
	if err != nil {
		t.Fatal(err)
	}
	eng, ctrl := seedRun(t)
	got, err := Capture(eng, seedOptions(ctrl)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the seed run encodes to %d bytes that differ from the %d-byte vector", len(got), len(want))
	}

	cp, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	restored, st, err := Restore(cp, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rctrl := admit.New(restored, admit.Config{})
	rctrl.RestoreState(*st)
	again, err := Capture(restored, seedOptions(rctrl)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("decode, restore and re-encode changed the vector's bytes")
	}
	for i := 0; i < 30; i++ {
		eng.Step()
		restored.Step()
		requireProbeEqual(t, i, eng, restored)
	}
}

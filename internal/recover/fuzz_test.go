package recover

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"lla/internal/admit"
	"lla/internal/byteio"
	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// seedRun is the run behind testdata/ckpt_v{3,4}_newton.bin and the fuzz corpus:
// Newton on Replicate(Base, 2, 4) after 15 serial Steps, with safeguard
// history, plus an admission controller holding one quarantine entry — the
// deepest payload shape.
func seedRun(tb testing.TB) (*core.Engine, *admit.Controller) {
	tb.Helper()
	w, err := workload.Replicate(workload.Base(), 2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(w, core.Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	for i := 0; i < 15; i++ {
		eng.Step()
	}
	ctrl := admit.New(eng, admit.Config{})
	ctrl.RestoreState(admit.State{Event: 5, Quarantine: []admit.QuarantineEntry{{Name: "q", Strikes: 1, Until: 9}}})
	return eng, ctrl
}

// seedOptions are the capture options of the seed run's checkpoint.
func seedOptions(ctrl *admit.Controller) CaptureOptions {
	return CaptureOptions{Epoch: 2, Seed: 11, Admit: ctrl}
}

// retiredVectors are the testdata vectors of retired versions, which Decode
// refuses.
var retiredVectors = []string{"ckpt_v1_gradient.bin", "ckpt_v1_newton.bin", "ckpt_v2_newton.bin", "ckpt_v3_newton.bin", "ckpt_v2_anderson.bin"}

// readVector reads a testdata vector.
func readVector(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fuzzSeedCheckpoint encodes the seed run's checkpoint for the fuzz corpus.
func fuzzSeedCheckpoint(f *testing.F) []byte {
	f.Helper()
	eng, ctrl := seedRun(f)
	b, err := Capture(eng, seedOptions(ctrl)).Encode()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzDecodeCheckpoint hardens the checkpoint codec against arbitrary bytes,
// seeded with the same hostile shapes as the transport readFrame corpus:
// truncations, bit flips, version skew, hostile length prefixes, trailing
// garbage and the retired versions' vectors must all error — never panic,
// never load silently.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := fuzzSeedCheckpoint(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))
	// Truncated envelope prefixes.
	for _, cut := range []int{1, len(ckptMagic), len(ckptMagic) + 2, len(ckptMagic) + 5, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Bit flips in the envelope, the payload, and the trailing CRC.
	for _, pos := range []int{0, len(ckptMagic), len(ckptMagic) + 3, len(valid) / 3, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x01
		f.Add(mut)
	}
	// Version skew.
	skew := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skew[len(ckptMagic):], ckptVersion+1)
	f.Add(skew)
	// Hostile payload length claims far beyond the input.
	hostile := append([]byte(nil), valid[:len(ckptMagic)+2]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xFFFF_FF00)
	f.Add(hostile)
	// Trailing garbage after a valid checkpoint.
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	for _, name := range retiredVectors {
		f.Add(readVector(f, name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err != nil {
			return // malformed input must fail cleanly
		}
		// A successful decode is a complete checkpoint: it must re-encode,
		// and the re-encoding must decode to the same payload bytes.
		b2, err := cp.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		if _, err := Decode(b2); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
	})
}

// FuzzDecodePayload drives the payload's sections — the engine section and
// the admission section behind a valid header and workload — through
// Restore into engines of both solvers: arbitrary
// section bytes reach the engine's and the dynamics' readers without having
// to forge a CRC or a workload hash first. Nothing may panic or hang, and a
// restored engine must re-encode to a checkpoint that restores again.
func FuzzDecodePayload(f *testing.F) {
	tmpl := map[price.Solver]*Checkpoint{}
	for _, solver := range price.Solvers() {
		eng, err := core.NewEngine(workload.Base(), core.Config{Workers: 1, PriceSolver: solver})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			eng.Step()
		}
		ctrl := admit.New(eng, admit.Config{})
		ctrl.RestoreState(admit.State{Event: 5, Quarantine: []admit.QuarantineEntry{{Name: "p", Strikes: 2, Until: 8}, {Name: "q", Strikes: 1, Until: 9}}})
		tmpl[solver] = Capture(eng, CaptureOptions{Admit: ctrl})
		eng.Close()
		f.Add(tmpl[solver].sections)
	}
	// The retired vectors' sections (version 1 gradient and Newton, version
	// 2 Newton on workload.Base(), version 3 the seed run; not the Anderson
	// one, whose header names a removed solver), which Decode refuses for
	// their version: read from the payload behind the envelope.
	for _, name := range retiredVectors[:4] {
		b := readVector(f, name)
		cp, err := decodePayload(b[len(ckptMagic)+2+4 : len(b)-4])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cp.sections)
	}
	sec := tmpl[price.SolverNewton].sections
	f.Add([]byte{})
	for _, cut := range []int{1, 8, 12, len(sec) / 2, len(sec) - 1} {
		f.Add(append([]byte(nil), sec[:cut]...))
	}
	for _, pos := range []int{0, 9, 16, len(sec) / 4, len(sec) - 1} {
		mut := append([]byte(nil), sec...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range tmpl {
			cp := *base
			cp.sections = data
			eng, st, err := Restore(&cp, core.Config{Workers: 1})
			if err != nil {
				continue // malformed sections must fail cleanly
			}
			var ctrl *admit.Controller
			if st != nil {
				ctrl = admit.New(eng, admit.Config{})
				ctrl.RestoreState(*st)
			}
			b, err := Capture(eng, CaptureOptions{Admit: ctrl}).Encode()
			eng.Close()
			if err != nil {
				t.Fatalf("restored sections do not re-encode: %v", err)
			}
			again, err := Decode(b)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			eng, _, err = Restore(again, core.Config{Workers: 1})
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not restore: %v", err)
			}
			eng.Close()
		}
	})
}

// Hostile length prefixes — a payload's solver name, the engine section's
// task count and first vector, the admission section's entry count — must
// error without allocating the claimed size up front.
func TestDecodeHostileLengthAllocs(t *testing.T) {
	eng, err := core.NewEngine(workload.Base(), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var header, tasks, vector, quarantine byteio.Enc
	header.U64(1)           // epoch
	header.U64(2)           // seed
	header.U8(0)            // converged
	header.U32(0xFFFF_FF00) // hostile solver-string length
	tasks.U64(3)            // iteration
	tasks.U32(0xFFFF_FF00)  // hostile task count
	vector.U64(3)
	vector.U32(uint32(eng.Problem().NumTasks()))
	vector.U32(0xFFFF_FF00) // hostile latency count
	quarantine.U8(1)        // admission state present
	quarantine.U64(5)       // event
	quarantine.U32(0xFFFF_FF00)
	for name, read := range map[string]func() error{
		"solver name": func() error { _, err := decodePayload(header.B); return err },
		"task count": func() error {
			d := byteio.Dec{Buf: tasks.B}
			eng.ReadCheckpoint(&d)
			return d.Err
		},
		"latency count": func() error {
			d := byteio.Dec{Buf: vector.B}
			eng.ReadCheckpoint(&d)
			return d.Err
		},
		"quarantine count": func() error {
			d := byteio.Dec{Buf: quarantine.B}
			readAdmit(&d)
			return d.Err
		},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if read() == nil {
				t.Fatalf("hostile %s decoded successfully", name)
			}
		})
		if allocs > 10 {
			t.Errorf("hostile %s cost %.0f allocations per decode", name, allocs)
		}
	}
}

// The envelope rejects inputs whose declared payload length disagrees with
// the byte count, in both directions.
func TestDecodeLengthMismatch(t *testing.T) {
	valid := func() []byte {
		w := workload.Base()
		eng, err := core.NewEngine(w, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		b, err := Capture(eng, CaptureOptions{}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	short := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(short[len(ckptMagic)+2:], uint32(len(valid))) // claims more than present
	if _, err := Decode(short); err == nil {
		t.Fatal("oversized payload claim decoded successfully")
	}
	if !bytes.HasPrefix(valid, []byte(ckptMagic)) {
		t.Fatal("encoded checkpoint missing magic")
	}
}

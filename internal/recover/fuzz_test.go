package recover

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// fuzzSeedCheckpoint builds one real encoded checkpoint (Newton, with its
// safeguard history, plus admission state: the deepest payload shape) for the
// fuzz corpus.
func fuzzSeedCheckpoint(f *testing.F) []byte {
	f.Helper()
	w, err := workload.Replicate(workload.Base(), 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := core.NewEngine(w, core.Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 15; i++ {
		eng.Step()
	}
	ctrl := admit.New(eng, admit.Config{})
	ctrl.RestoreState(admit.State{Event: 5, Quarantine: []admit.QuarantineEntry{{Name: "q", Strikes: 1, Until: 9}}})
	b, err := Capture(eng, CaptureOptions{Epoch: 2, Seed: 11, Admit: ctrl}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzDecodeCheckpoint hardens the checkpoint codec against arbitrary bytes,
// seeded with the same hostile shapes as the transport readFrame corpus:
// truncations, bit flips, version skew, hostile length prefixes, and
// trailing garbage must all error — never panic, never load silently.
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

// FuzzDecodePayload drives the post-checksum payload parser directly —
// arbitrary bytes reach the deep structural decoding here without having to
// forge a matching CRC first.
func FuzzDecodePayload(f *testing.F) {
	valid := fuzzSeedCheckpoint(f)
	// The payload sits between the 14-byte envelope header and the 4-byte CRC.
	pay := valid[len(ckptMagic)+2+4 : len(valid)-4]
	f.Add(append([]byte(nil), pay...))
	f.Add([]byte{})
	for _, cut := range []int{1, 8, 17, len(pay) / 2, len(pay) - 1} {
		f.Add(append([]byte(nil), pay[:cut]...))
	}
	for _, pos := range []int{0, 8, 16, len(pay) / 4, len(pay) - 1} {
		mut := append([]byte(nil), pay...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for v := uint16(1); v <= ckptVersion; v++ {
			_, _ = decodePayload(data, v) // must not panic or hang, errors are fine
		}
	})
}

// A hostile slice-length prefix must error without allocating the claimed
// size up front.
func TestDecodeHostileLengthAllocs(t *testing.T) {
	var p payload
	p.u64(1)           // epoch
	p.i64(2)           // seed
	p.bool(false)      // converged
	p.u32(0xFFFF_FF00) // hostile solver-string length
	body := p.b
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePayload(body, ckptVersion); err == nil {
			t.Fatal("hostile length prefix decoded successfully")
		}
	})
	if allocs > 10 {
		t.Errorf("hostile length prefix cost %.0f allocations per decode", allocs)
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

package recover

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"lla/internal/admit"
	"lla/internal/core"
)

// The vectors in testdata were written from workload.Base() with Seed 7 and
// one serial worker by the codecs of retired versions, whose layouts no
// reader is left for:
//   - ckpt_v1_{gradient,newton}.bin by the version-1 codec (the gradient's
//     per-resource agent step sizes beside an optional Dynamics state), after
//     12 Steps;
//   - ckpt_v2_newton.bin by the version-2 codec (one Dynamics state followed by
//     an empty Anderson mixing window), after 6 Steps;
//   - ckpt_v2_anderson.bin by the version-2 codec under the removed Anderson
//     solver, after 12 Steps.
//
// ckpt_v3_newton.bin is the seed run of seedRun written by the version-3
// codec (each controller's input fingerprint in the engine section), and
// ckpt_v4_newton.bin the same run in the current format.

// TestRetiredCheckpointsRefused: Decode refuses each retired vector with an
// error naming its version. Re-stamped as the current version (the CRC
// covers only the payload), each is still refused — its engine section is
// not in the current layout — by Restore, with an error and no engine.
func TestRetiredCheckpointsRefused(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		version    uint16
	}{
		{"v1-gradient", "ckpt_v1_gradient.bin", 1},
		{"v1-newton", "ckpt_v1_newton.bin", 1},
		{"v2-newton", "ckpt_v2_newton.bin", 2},
		{"v3-newton", "ckpt_v3_newton.bin", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := retired(t, tc.file, tc.version)
			if cp, err := Decode(b); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d refused", tc.version)) {
				t.Fatalf("Decode = %v, %v; want an error naming version %d", cp, err, tc.version)
			}
			cp, err := Decode(restamp(b))
			if err != nil {
				t.Fatalf("re-stamped as version %d: %v", ckptVersion, err)
			}
			if eng, _, err := Restore(cp, core.Config{Workers: 1}); err == nil {
				eng.Close()
				t.Fatal("a retired engine section restored as the current layout")
			}
		})
	}
}

// retired reads a retired vector and checks the version it is stamped with.
func retired(t *testing.T, file string, version uint16) []byte {
	t.Helper()
	b := readVector(t, file)
	if v := binary.LittleEndian.Uint16(b[len(ckptMagic):]); v != version {
		t.Fatalf("%s is version %d, want %d", file, v, version)
	}
	return b
}

// restamp returns a copy of b stamped with the current version.
func restamp(b []byte) []byte {
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint16(b[len(ckptMagic):], ckptVersion)
	return b
}

// reseal recomputes the CRC of an encoded checkpoint whose payload was
// patched.
func reseal(b []byte) {
	pay := b[len(ckptMagic)+2+4 : len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(pay))
}

// TestAndersonCheckpointsAreRejected: the removed Anderson solver's vector is
// refused for its version, and re-stamped as the current version, for its
// solver, with an error naming it.
func TestAndersonCheckpointsAreRejected(t *testing.T) {
	b := retired(t, "ckpt_v2_anderson.bin", 2)
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "version 2 refused") {
		t.Fatalf("Anderson vector decoded to %v, want an error naming version 2", err)
	}
	if _, err := Decode(restamp(b)); err == nil || !strings.Contains(err.Error(), "anderson") {
		t.Fatalf("re-stamped Anderson vector decoded to %v, want an error naming anderson", err)
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

package recover

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/price"
	"lla/internal/workload"
)

// newRunEngine builds an engine on the Fig 6-scale workload and steps it.
func newRunEngine(t *testing.T, solver price.Solver, steps int) *core.Engine {
	t.Helper()
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(w, core.Config{Workers: 1, PriceSolver: solver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for i := 0; i < steps; i++ {
		eng.Step()
	}
	return eng
}

// requireProbeEqual compares two engines' probes bitwise.
func requireProbeEqual(t *testing.T, step int, a, b *core.Engine) {
	t.Helper()
	pa, pb := a.Probe(), b.Probe()
	if pa != pb {
		t.Fatalf("step %d: probes diverged:\n original %+v\n restored %+v", step, pa, pb)
	}
}

// TestCheckpointRoundTrip: Capture → Encode → Decode → Restore resumes the
// run bitwise for every solver.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, solver := range price.Solvers() {
		t.Run(string(solver), func(t *testing.T) {
			eng := newRunEngine(t, solver, 40)
			cp := Capture(eng, CaptureOptions{Epoch: 3, Seed: 42, Converged: true})
			b, err := cp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Epoch != 3 || dec.Seed != 42 || !dec.Converged || dec.Solver != solver {
				t.Fatalf("metadata did not round-trip: %+v", dec)
			}
			j1, err1 := json.Marshal(cp.Workload)
			j2, err2 := json.Marshal(dec.Workload)
			if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
				t.Fatalf("workload changed across the round trip (%v, %v)", err1, err2)
			}
			restored, err := Restore(dec, core.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			requireProbeEqual(t, 0, eng, restored)
			for i := 0; i < 80; i++ {
				eng.Step()
				restored.Step()
				requireProbeEqual(t, i+1, eng, restored)
			}
		})
	}
}

// TestCheckpointCarriesAdmitState: quarantine clocks survive the round trip.
func TestCheckpointCarriesAdmitState(t *testing.T) {
	eng := newRunEngine(t, price.SolverGradient, 30)
	ctrl := admit.New(eng, admit.Config{})
	st := admit.State{Event: 17, Quarantine: []admit.QuarantineEntry{
		{Name: "burst-3", Strikes: 2, Until: 21},
		{Name: "web-9", Strikes: 1, Until: 19},
	}}
	ctrl.RestoreState(st)

	cp := Capture(eng, CaptureOptions{Admit: ctrl})
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admit == nil {
		t.Fatal("admission state missing after round trip")
	}
	got := *dec.Admit
	if got.Event != st.Event || len(got.Quarantine) != len(st.Quarantine) {
		t.Fatalf("admission state = %+v, want %+v", got, st)
	}
	for i := range st.Quarantine {
		if got.Quarantine[i] != st.Quarantine[i] {
			t.Fatalf("quarantine[%d] = %+v, want %+v", i, got.Quarantine[i], st.Quarantine[i])
		}
	}
}

// TestDecodeRejectsCorruption: truncations, bit flips and version skew all
// error; none load silently.
func TestDecodeRejectsCorruption(t *testing.T) {
	eng := newRunEngine(t, price.SolverNewton, 25)
	b, err := Capture(eng, CaptureOptions{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("pristine checkpoint failed to decode: %v", err)
	}
	for cut := 0; cut < len(b); cut += 97 {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for pos := 0; pos < len(b); pos += 131 {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", pos)
		}
	}
	skew := append([]byte(nil), b...)
	skew[len(ckptMagic)] = 0xFE // version field
	if _, err := Decode(skew); err == nil {
		t.Fatal("version-skewed checkpoint decoded successfully")
	}
	if _, err := Decode(append(append([]byte(nil), b...), 0xAA)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// TestRestoreRefusesNonFiniteState: a checkpoint whose CRC is valid but
// whose state holds a NaN price, an infinite latency and a negative step
// size encodes and decodes, and Restore refuses it.
func TestRestoreRefusesNonFiniteState(t *testing.T) {
	cp := Capture(newRunEngine(t, price.SolverNewton, 10), CaptureOptions{})
	cp.Engine.Mu[0] = math.NaN()
	cp.Engine.LatMs[0][0] = math.Inf(1)
	cp.Engine.Dyn.Gammas[1] = -3
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if eng, err := Restore(dec, core.Config{Workers: 1, PriceSolver: price.SolverNewton}); err == nil {
		eng.Close()
		t.Fatal("Restore resumed a non-finite checkpoint")
	}
}

// TestWriterAtomicAndPruned: Save publishes complete files only, keeps the
// configured generation count, and Latest falls back past a corrupted tail.
func TestWriterAtomicAndPruned(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := newRunEngine(t, price.SolverGradient, 0)
	var lastPath string
	for i := 0; i < 4; i++ {
		for j := 0; j < 10; j++ {
			eng.Step()
		}
		lastPath, err = w.Save(Capture(eng, CaptureOptions{Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if names := listCheckpoints(dir); len(names) != 2 {
		t.Fatalf("writer kept %d checkpoints, want 2: %v", len(names), names)
	}
	if w.Saves() != 4 || w.LastBytes() == 0 {
		t.Fatalf("writer counters: saves=%d lastBytes=%d", w.Saves(), w.LastBytes())
	}

	cp, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != lastPath {
		t.Fatalf("Latest returned %s, want %s", path, lastPath)
	}
	if cp.Engine.Iteration != 40 {
		t.Fatalf("latest checkpoint at iteration %d, want 40", cp.Engine.Iteration)
	}

	// Corrupt the newest file: Latest must fall back to the older one.
	b, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(lastPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, path, err = Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path == lastPath {
		t.Fatal("Latest returned the corrupted checkpoint")
	}
	if cp.Engine.Iteration != 30 {
		t.Fatalf("fallback checkpoint at iteration %d, want 30", cp.Engine.Iteration)
	}

	// No temp litter after successful saves.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestLatestEmptyDir reports os.ErrNotExist for a checkpoint-free directory.
func TestLatestEmptyDir(t *testing.T) {
	if _, _, err := Latest(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty dir: %v, want ErrNotExist", err)
	}
}

package recover

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lla/internal/admit"
	"lla/internal/byteio"
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
			restored, _, err := Restore(dec, core.Config{Workers: 4})
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
	restored, got, err := Restore(dec, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	if got == nil {
		t.Fatal("admission state missing after round trip")
	}
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
// whose engine section holds a NaN price, an infinite latency or a negative
// step size decodes, and Restore refuses it.
func TestRestoreRefusesNonFiniteState(t *testing.T) {
	eng := newRunEngine(t, price.SolverNewton, 10)
	cp := Capture(eng, CaptureOptions{})
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into the engine section (core.Engine.AppendCheckpoint): the
	// first latency follows the iteration, the task count and its length
	// prefix; the prices follow every task's four vectors; the Newton step
	// sizes lead the dynamics' part, which closes the section before the
	// admission tag with the fallback count and the halvings and signs.
	p := eng.Problem()
	mu := 8 + 4
	for ti, tk := range p.Workload().Tasks {
		mu += 2*(4+8*len(tk.Subtasks)) + 2*(4+8*p.NumPaths(ti))
	}
	nr := len(p.Resources)
	gammas := len(cp.sections) - 1 - 2*(4+nr) - 8 - 8*nr
	if n := binary.LittleEndian.Uint32(cp.sections[gammas-4:]); int(n) != nr || string(cp.sections[gammas-4-6:gammas-4]) != "newton" {
		t.Fatalf("no Newton step sizes at section offset %d", gammas)
	}
	sec := len(b) - 4 - len(cp.sections)
	for _, tc := range []struct {
		name string
		at   int
		want float64
		v    float64
	}{
		{"price NaN", mu + 4, eng.Snapshot().Mu[0], math.NaN()},
		{"latency Inf", 8 + 4 + 4, eng.Controller(0).LatMs[0], math.Inf(1)},
		{"step size negative", gammas + 8, math.NaN(), -3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), b...)
			at := sec + tc.at
			if got := math.Float64frombits(binary.LittleEndian.Uint64(mut[at:])); got != tc.want && !math.IsNaN(tc.want) {
				t.Fatalf("offset %d reads %v, the engine holds %v", tc.at, got, tc.want)
			}
			binary.LittleEndian.PutUint64(mut[at:], math.Float64bits(tc.v))
			reseal(mut)
			dec, err := Decode(mut)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if eng, _, err := Restore(dec, core.Config{Workers: 1}); err == nil {
				eng.Close()
				t.Fatal("Restore resumed a non-finite checkpoint")
			}
		})
	}
}

// TestRestoreRefusesMalformedAdmission: a CRC-valid checkpoint whose
// admission section names a task twice or out of order, gives an entry
// fewer than one strike, or carries a negative event counter is refused —
// before, the duplicate silently dropped an entry's strikes.
func TestRestoreRefusesMalformedAdmission(t *testing.T) {
	eng := newRunEngine(t, price.SolverGradient, 3)
	type entry struct {
		name           string
		strikes, until int64
	}
	build := func(event int64, entries ...entry) *Checkpoint {
		cp := Capture(eng, CaptureOptions{})
		w := byteio.Enc{B: cp.sections[:len(cp.sections)-1]} // drop the empty tag
		w.U8(1)
		w.U64(uint64(event))
		w.U32(uint32(len(entries)))
		for _, q := range entries {
			putStr(&w, q.name)
			w.U64(uint64(q.strikes))
			w.U64(uint64(q.until))
		}
		cp.sections = w.B
		b, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if cp, err = Decode(b); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	restore := func(cp *Checkpoint) (*admit.State, error) {
		eng, st, err := Restore(cp, core.Config{Workers: 1})
		if err == nil {
			eng.Close()
		}
		return st, err
	}
	st, err := restore(build(4, entry{"a", 1, 7}, entry{"b", 3, 50}))
	if err != nil || st.Event != 4 || len(st.Quarantine) != 2 || st.Quarantine[1] != (admit.QuarantineEntry{Name: "b", Strikes: 3, Until: 50}) {
		t.Fatalf("well-formed admission section restored to %+v, %v", st, err)
	}
	for name, cp := range map[string]*Checkpoint{
		"probe's entries": build(-4, entry{"b", 3, 50}, entry{"a", 0, 0}, entry{"b", -1, -9}),
		"duplicate":       build(4, entry{"a", 1, 7}, entry{"b", 3, 50}, entry{"b", 1, 9}),
		"descending":      build(4, entry{"b", 3, 50}, entry{"a", 1, 7}),
		"zero strikes":    build(4, entry{"a", 0, 7}),
		"negative event":  build(-4),
	} {
		if _, err := restore(cp); err == nil {
			t.Errorf("%s: restored, want an error", name)
		}
	}
}

// TestWriterAtomicAndPruned: Save publishes complete files only, keeps the
// newest keep generations, and Latest falls back past a corrupted tail.
func TestWriterAtomicAndPruned(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := newRunEngine(t, price.SolverGradient, 0)
	var lastPath string
	for i := 0; i < 5; i++ {
		for j := 0; j < 10; j++ {
			eng.Step()
		}
		lastPath, err = w.Save(Capture(eng, CaptureOptions{Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if names := listCheckpoints(dir); len(names) != 3 {
		t.Fatalf("writer kept %d checkpoints, want 3: %v", len(names), names)
	}
	if w.Saves() != 5 || w.LastBytes() == 0 {
		t.Fatalf("writer counters: saves=%d lastBytes=%d", w.Saves(), w.LastBytes())
	}

	cp, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != lastPath {
		t.Fatalf("Latest returned %s, want %s", path, lastPath)
	}
	if it := iterationOf(t, cp); it != 50 {
		t.Fatalf("latest checkpoint at iteration %d, want 50", it)
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
	if it := iterationOf(t, cp); it != 40 {
		t.Fatalf("fallback checkpoint at iteration %d, want 40", it)
	}

	// No temp litter after successful saves.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// iterationOf restores cp and returns the restored engine's iteration.
func iterationOf(t *testing.T, cp *Checkpoint) int {
	t.Helper()
	eng, _, err := Restore(cp, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	return eng.Iteration()
}

// TestLatestEmptyDir reports os.ErrNotExist for a checkpoint-free directory.
func TestLatestEmptyDir(t *testing.T) {
	if _, _, err := Latest(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty dir: %v, want ErrNotExist", err)
	}
}

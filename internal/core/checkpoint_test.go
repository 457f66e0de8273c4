package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"lla/internal/byteio"
	"lla/internal/price"
	"lla/internal/workload"
)

// checkpointSection writes e's checkpoint section.
func checkpointSection(t testing.TB, e *Engine) []byte {
	t.Helper()
	var w byteio.Enc
	e.AppendCheckpoint(&w)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	return w.B
}

// readSection reads a current-version checkpoint section into e, which
// must consume it exactly.
func readSection(e *Engine, b []byte) error { return readVersion(e, b, CheckpointVersion) }

// readVersion reads a checkpoint section of the given layout version into
// e, which must consume it exactly.
func readVersion(e *Engine, b []byte, version int) error {
	d := byteio.Dec{Buf: b}
	e.ReadCheckpoint(&d, version)
	return d.Done()
}

// v3Section is e's checkpoint section in the version-3 layout: between the
// congestion flags and the sparse counters, each controller's input
// fingerprint — the current prices and flags, so a stable controller stays
// stable — and the six flag vectors version 3 held.
func v3Section(t testing.TB, e *Engine) []byte {
	sec := checkpointSection(t, e)
	at, nt, nr := sectionOffsets(e, CheckpointVersion)["Flags"], e.p.NumTasks(), len(e.price)
	fpMu, fpCong := make([]float64, len(e.inc.taskRes)), make([]bool, len(e.inc.taskRes))
	for j, ri := range e.inc.taskRes {
		fpMu[j], fpCong[j] = e.price[ri], e.congested[ri]
	}
	w := byteio.Enc{B: append([]byte(nil), sec[:at]...)}
	putF64s(&w, fpMu)
	for _, flags := range [][]bool{fpCong, e.ctlStable, e.ctlStable, e.latChanged, e.priceStable, e.priceStable} {
		putBools(&w, flags, true)
	}
	return append(w.B, sec[at+4+nt+4+nr:]...)
}

// TestRestoreBitwiseEverySolverAndWorkers is the checkpoint tentpole's
// contract: crash at iteration k, capture, restore into a fresh engine, and
// every subsequent snapshot is byte-identical to the uninterrupted run — for
// every price solver, every capture/restore Workers combination, and both
// with and without the sparse path having accumulated skip state.
func TestRestoreBitwiseEverySolverAndWorkers(t *testing.T) {
	w4 := func(t *testing.T) *workload.Workload {
		w, err := workload.Replicate(workload.Base(), 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	const crashAt = 60
	const tail = 120
	for _, solver := range price.Solvers() {
		for _, wk := range []struct{ capture, restore int }{{1, 1}, {1, 4}, {4, 1}} {
			t.Run(string(solver), func(t *testing.T) {
				cfg := Config{Workers: wk.capture, PriceSolver: solver}
				ref, err := NewEngine(w4(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				for i := 0; i < crashAt; i++ {
					ref.Step()
				}
				st := checkpointSection(t, ref)

				restoredCfg := cfg
				restoredCfg.Workers = wk.restore
				// The version-3 layout must restore the same state.
				if old, err := NewEngine(w4(t), restoredCfg); err != nil {
					t.Fatal(err)
				} else if err := readVersion(old, v3Section(t, ref), 3); err != nil {
					t.Fatalf("ReadCheckpoint version 3: %v", err)
				} else {
					requireEnginesBitwiseEqual(t, "version-3 restore", ref, old)
					if !slices.Equal(old.ctlStable, ref.ctlStable) || !slices.Equal(old.priceStable, ref.priceStable) || old.sstats != ref.sstats {
						t.Fatal("version-3 restore changed the active set")
					}
					old.Close()
				}
				restored, err := NewEngine(w4(t), restoredCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if err := readSection(restored, st); err != nil {
					t.Fatalf("ReadCheckpoint: %v", err)
				}
				if restored.Iteration() != crashAt {
					t.Fatalf("restored iteration = %d, want %d", restored.Iteration(), crashAt)
				}

				var rs, cs Snapshot
				ref.SnapshotInto(&rs)
				restored.SnapshotInto(&cs)
				requireSnapshotsBitwiseEqual(t, crashAt, &rs, &cs)
				for i := 0; i < tail; i++ {
					ref.Step()
					restored.Step()
					ref.SnapshotInto(&rs)
					restored.SnapshotInto(&cs)
					requireSnapshotsBitwiseEqual(t, crashAt+i, &rs, &cs)
				}
				if ref.SolverFallbacks() != restored.SolverFallbacks() {
					t.Fatalf("fallback counts diverged: ref %d restored %d",
						ref.SolverFallbacks(), restored.SolverFallbacks())
				}
				if ref.SparseStats() != restored.SparseStats() {
					t.Fatalf("sparse stats diverged:\n ref      %+v\n restored %+v",
						ref.SparseStats(), restored.SparseStats())
				}
			})
		}
	}
}

// TestReadVersion3FoldsFingerprints: a version-3 section's active set folds
// into the two fixed-point vectors as its Step would have read it. At a
// frozen point every controller and resource is stable; a fingerprint
// that no longer matches its price or its flag, a controller that had not
// solved, or a
// resource whose sum was not cached must come back unstable — and nothing
// else that was stable — and the next Step must execute them and land
// bitwise where the uninterrupted run does.
func TestReadVersion3FoldsFingerprints(t *testing.T) {
	mk := func() *Engine {
		w, err := workload.Replicate(workload.Base(), 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(w, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := mk()
	defer ref.Close()
	ref.Run(600, nil) // past the certificate and the freeze (TestSparseSkipsAtSteadyState)
	nt, nr, ntr := ref.p.NumTasks(), len(ref.price), len(ref.inc.taskRes)
	var stable []int
	for ti, s := range ref.ctlStable {
		if s {
			stable = append(stable, ti)
		}
	}
	uncached := slices.Index(ref.priceStable, true)
	if len(stable) < 3 || uncached < 0 {
		t.Fatalf("stable controllers %v, resources %v: the test tests nothing", ref.ctlStable, ref.priceStable)
	}
	moved, flipped, unsolved := stable[0], stable[1], stable[len(stable)-1]
	sec := v3Section(t, ref)
	fp := sectionOffsets(ref, 3)["FpMu"]
	j := int(ref.inc.taskResOff[moved])
	binary.LittleEndian.PutUint64(sec[fp+8*j:], math.Float64bits(ref.price[ref.inc.taskRes[j]]+1))
	flags := fp + 8*ntr // fpCong, solved, ctlStable, latChanged, priceStable, sumValid
	sec[flags+4+int(ref.inc.taskResOff[flipped])] ^= 1
	sec[flags+(4+ntr)+4+unsolved] = 0
	sec[flags+(4+ntr)+3*(4+nt)+(4+nr)+4+uncached] = 0
	old := mk()
	defer old.Close()
	if err := readVersion(old, sec, 3); err != nil {
		t.Fatal(err)
	}
	for ti, stable := range old.ctlStable {
		if stable != (ref.ctlStable[ti] && ti != moved && ti != flipped && ti != unsolved) {
			t.Fatalf("controller %d restored stable=%v", ti, stable)
		}
	}
	for ri, stable := range old.priceStable {
		if stable != (ref.priceStable[ri] && ri != uncached) {
			t.Fatalf("resource %d restored stable=%v", ri, stable)
		}
	}
	before, refBefore := old.SparseStats(), ref.SparseStats()
	ref.Step()
	old.Step()
	requireEnginesBitwiseEqual(t, "the Step after a version-3 restore", ref, old)
	got, want := old.SparseStats(), ref.SparseStats()
	if got.ExecutedSolves-before.ExecutedSolves != want.ExecutedSolves-refBefore.ExecutedSolves+3 ||
		got.RepricedResources-before.RepricedResources != want.RepricedResources-refBefore.RepricedResources+1 {
		t.Fatalf("the Step after a version-3 restore: %+v, uninterrupted %+v", got, want)
	}
}

// TestRestoreCarriesErrorMs: SetErrorMs writes only the compiled problem, so
// a restore that rebuilt the engine from the workload alone would lose it.
// The captured state must carry it and the restored trajectory must match.
func TestRestoreCarriesErrorMs(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 20; i++ {
		ref.Step()
	}
	name := ref.p.taskName(0)
	sub := ref.p.subtaskName(0, 0)
	if err := ref.SetErrorMs(name, sub, 0.4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ref.Step()
	}
	st := checkpointSection(t, ref)

	restored, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := readSection(restored, st); err != nil {
		t.Fatal(err)
	}
	if got := restored.p.errMs[0]; got != 0.4 {
		t.Fatalf("restored ErrMs = %v, want 0.4", got)
	}
	var rs, cs Snapshot
	for i := 0; i < 50; i++ {
		ref.Step()
		restored.Step()
		ref.SnapshotInto(&rs)
		restored.SnapshotInto(&cs)
		requireSnapshotsBitwiseEqual(t, i, &rs, &cs)
	}
}

// TestRestoreRejectsMismatch: shape and solver mismatches must refuse the
// restore rather than load approximately. Every engine runs a Dynamics, so
// the solver check is the Dynamics state's own, whichever solver the
// checkpoint and the engine name.
func TestRestoreRejectsMismatch(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Step()
	st := checkpointSection(t, ref)

	bigger, err := workload.Replicate(workload.Base(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(bigger, Config{Workers: 1, PriceSolver: price.SolverGradient})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := readSection(other, st); err == nil {
		t.Fatal("restoring into a differently shaped engine succeeded, want error")
	}

	accel, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: price.SolverNewton})
	if err != nil {
		t.Fatal(err)
	}
	defer accel.Close()
	if err := readSection(accel, st); err == nil {
		t.Fatal("restoring gradient checkpoint into newton engine succeeded, want error")
	}

	accel.Step()
	if err := readSection(ref, checkpointSection(t, accel)); err == nil {
		t.Fatal("restoring newton checkpoint into gradient engine succeeded, want error")
	}
}

// TestRestoreRejectsNonFiniteState: a checkpoint section whose values no
// run can produce is refused, not resumed — one NaN price would spread to
// every price within a few Steps. Each case patches one value of an encoded
// section.
func TestRestoreRejectsNonFiniteState(t *testing.T) {
	ref, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 10; i++ {
		ref.Step()
	}
	// A fingerprint exists only in the version-3 layout.
	versionOf := func(field string) int {
		if field == "FpMu" {
			return 3
		}
		return CheckpointVersion
	}
	section := func(field string) []byte {
		if versionOf(field) == 3 {
			return v3Section(t, ref)
		}
		return checkpointSection(t, ref)
	}
	at := map[int]map[string]int{3: sectionOffsets(ref, 3), CheckpointVersion: sectionOffsets(ref, CheckpointVersion)}
	// The offsets must land on the values they name.
	for field, want := range map[string]float64{
		"Mu": ref.price[0], "FpMu": ref.price[ref.inc.taskRes[0]], "ShareSums": ref.shareSums[0], "DynDelta": ref.dynDelta,
		"LatMs/0": ref.Controller(0).LatMs[0], "ErrMs/1": ref.p.errMs[ref.p.subOff[1]],
		"Lambda/0": ref.Controller(0).Lambda[0], "PathGamma/0": ref.Controller(0).gamma[0], "DynGammas": ref.dyn.Gamma(0),
	} {
		off := at[versionOf(field)][field]
		if got := math.Float64frombits(binary.LittleEndian.Uint64(section(field)[off:])); got != want {
			t.Fatalf("%s at offset %d reads %v, engine holds %v", field, off, got, want)
		}
	}
	for _, tc := range []struct {
		name  string
		field string
		i     int
		v     float64
	}{
		{"Mu NaN", "Mu", 0, math.NaN()},
		{"Mu negative", "Mu", 1, -1},
		{"Mu above MaxPrice", "Mu", 0, 2 * price.MaxPrice},
		{"FpMu Inf", "FpMu", 0, math.Inf(1)},
		{"FpMu negative", "FpMu", 0, -0.5},
		{"ShareSums NaN", "ShareSums", 0, math.NaN()},
		{"DynDelta Inf", "DynDelta", 0, math.Inf(1)},
		{"LatMs Inf", "LatMs/0", 0, math.Inf(1)},
		{"ErrMs -Inf", "ErrMs/1", 0, math.Inf(-1)},
		{"Lambda negative", "Lambda/0", 0, -1},
		{"Lambda NaN", "Lambda/0", 0, math.NaN()},
		{"PathGamma zero", "PathGamma/0", 0, 0},
		{"Dyn gamma negative", "DynGammas", 1, -3},
		{"Dyn gamma NaN", "DynGammas", 0, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, st := versionOf(tc.field), section(tc.field)
			binary.LittleEndian.PutUint64(st[at[v][tc.field]+8*tc.i:], math.Float64bits(tc.v))
			eng, err := NewEngine(workload.Base(), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := readVersion(eng, st, v); err == nil {
				t.Fatal("restore succeeded, want an error")
			}
		})
	}
}

// sectionOffsets locates, in e's checkpoint section of the given layout
// version (3 or current), the first value of each float vector (per-task
// ones as "LatMs/<task>" and so on; DynDelta is a single value) and the
// start of the fixed-point flags ("Flags").
func sectionOffsets(e *Engine, version int) map[string]int {
	at := map[string]int{}
	off := 8 + 4 // iteration, task count
	f64s := func(name string, n int) { at[name] = off + 4; off += 4 + 8*n }
	bools := func(n int) { off += 4 + n }
	for ti := range e.p.NumTasks() {
		c := e.Controller(ti)
		f64s(fmt.Sprint("LatMs/", ti), len(c.LatMs))
		f64s(fmt.Sprint("Lambda/", ti), len(c.Lambda))
		f64s(fmt.Sprint("PathGamma/", ti), len(c.gamma))
		f64s(fmt.Sprint("ErrMs/", ti), len(c.LatMs))
	}
	nr, nt := len(e.price), e.p.NumTasks()
	f64s("Mu", nr)
	f64s("ShareSums", nr)
	bools(nr)
	at["Flags"] = off
	flags := []int{nt, nr}
	if version == 3 {
		f64s("FpMu", len(e.inc.taskRes))
		flags = []int{len(e.inc.taskRes), nt, nt, nt, nr, nr}
	}
	for _, n := range flags {
		bools(n)
	}
	off += 5 * 8 // sparse counters
	at["DynDelta"] = off
	off += 8 + 4 + len(e.dyn.Solver())
	f64s("DynGammas", nr)
	return at
}

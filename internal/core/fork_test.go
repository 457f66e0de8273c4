package core

import (
	"testing"

	"lla/internal/workload"
)

// TestForkMatchesOriginal locks in the warm-start contract: a fork taken
// mid-run produces exactly the trajectory the original produces from the
// same point.
func TestForkMatchesOriginal(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(50, nil)

	f, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 100; i++ {
		e.Step()
		f.Step()
		ep, fp := e.Probe(), f.Probe()
		if ep.Utility != fp.Utility ||
			ep.MaxResourceViolation != fp.MaxResourceViolation ||
			ep.MaxPathViolationFrac != fp.MaxPathViolationFrac {
			t.Fatalf("step %d: fork diverged: orig %+v fork %+v", i, ep, fp)
		}
	}
	es, fs := e.Snapshot(), f.Snapshot()
	for ti := range es.LatMs {
		for si := range es.LatMs[ti] {
			if es.LatMs[ti][si] != fs.LatMs[ti][si] {
				t.Fatalf("lat[%d][%d]: orig %v fork %v", ti, si, es.LatMs[ti][si], fs.LatMs[ti][si])
			}
		}
	}
	for ri := range es.Mu {
		if es.Mu[ri] != fs.Mu[ri] {
			t.Fatalf("mu[%d]: orig %v fork %v", ri, es.Mu[ri], fs.Mu[ri])
		}
	}
}

// TestForkIsolation: stepping (and mutating) the fork leaves the original
// engine's state untouched.
func TestForkIsolation(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(50, nil)
	before := e.Snapshot()

	f, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SetAvailability(e.Problem().Resources[0].ID, 0.4); err != nil {
		t.Fatal(err)
	}
	f.Run(200, nil)

	after := e.Snapshot()
	if before.Utility != after.Utility {
		t.Fatalf("original utility changed: %v -> %v", before.Utility, after.Utility)
	}
	for ri := range before.Mu {
		if before.Mu[ri] != after.Mu[ri] {
			t.Fatalf("original mu[%d] changed: %v -> %v", ri, before.Mu[ri], after.Mu[ri])
		}
	}
	if e.Problem().Resources[0].Availability == 0.4 {
		t.Fatal("fork availability change leaked into the original problem")
	}
}

// TestCurrentWorkloadBakesRuntimeState: availability changes (which do not
// write back to the source workload) and min-share changes both appear in
// the copy, and mutating the copy does not touch the engine.
func TestCurrentWorkloadBakesRuntimeState(t *testing.T) {
	w := workload.Base()
	e, err := NewEngine(w, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rid := w.Resources[0].ID
	if err := e.SetAvailability(rid, 0.55); err != nil {
		t.Fatal(err)
	}

	c := e.CurrentWorkload()
	got, ok := c.ResourceByID(rid)
	if !ok || got.Availability != 0.55 {
		t.Fatalf("copy availability = %v, want 0.55", got.Availability)
	}
	c.Resources[0].Availability = 0.1
	c.Tasks[0].CriticalMs = 1
	if e.Problem().Resources[0].Availability != 0.55 {
		t.Fatal("mutating the copy changed the engine's problem")
	}
	if e.Problem().Tasks[0].CriticalMs == 1 {
		t.Fatal("mutating a copied task changed the engine's problem")
	}
}

// TestForkCarriesErrorCorrection: the ErrMs correction lives only in the
// compiled problem; a fork must inherit it.
func TestForkCarriesErrorCorrection(t *testing.T) {
	w := workload.Base()
	e, err := NewEngine(w, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tn, sn := w.Tasks[0].Name, w.Tasks[0].Subtasks[0].Name
	if err := e.SetErrorMs(tn, sn, 0.7); err != nil {
		t.Fatal(err)
	}
	f, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Problem().Tasks[0].ErrMs[0]; got != 0.7 {
		t.Fatalf("fork ErrMs = %v, want 0.7", got)
	}
}

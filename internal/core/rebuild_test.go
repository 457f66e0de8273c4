package core

import (
	"testing"

	"lla/internal/workload"
)

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
	if e.Problem().Workload().Tasks[0].CriticalMs == 1 || e.p.consts[0].criticalMs == 1 {
		t.Fatal("mutating a copied task changed the engine's problem")
	}
}

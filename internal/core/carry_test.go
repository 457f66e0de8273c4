package core

import (
	"testing"

	"lla/internal/workload"
)

// TestPinEpoch locks in the epoch contract the fleet's shard skipping rests
// on: the epoch advances exactly when a pin changes something — a new pin,
// a moved price, a flipped congestion bit, an unpin — and stays put when a
// pin re-asserts the identical (price, congested) pair.
func TestPinEpoch(t *testing.T) {
	e, err := NewEngine(twoTaskOneResource(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e0 := e.PinEpoch()
	if err := e.PinPrice(0, 5, false); err != nil {
		t.Fatal(err)
	}
	e1 := e.PinEpoch()
	if e1 != e0+1 {
		t.Fatalf("new pin: epoch %d -> %d, want +1", e0, e1)
	}
	if err := e.PinPrice(0, 5, false); err != nil {
		t.Fatal(err)
	}
	if got := e.PinEpoch(); got != e1 {
		t.Fatalf("identical re-pin moved epoch %d -> %d", e1, got)
	}
	if err := e.PinPrice(0, 6, false); err != nil {
		t.Fatal(err)
	}
	if got := e.PinEpoch(); got != e1+1 {
		t.Fatalf("price move: epoch %d, want %d", got, e1+1)
	}
	if err := e.PinPrice(0, 6, true); err != nil {
		t.Fatal(err)
	}
	if got := e.PinEpoch(); got != e1+2 {
		t.Fatalf("congestion flip: epoch %d, want %d", got, e1+2)
	}
	e.UnpinPrice(0)
	if got := e.PinEpoch(); got != e1+3 {
		t.Fatalf("unpin: epoch %d, want %d", got, e1+3)
	}
}

// TestCarryFromWarmStart checks the carry semantics: prices carry by
// resource ID, surviving tasks' latencies carry by name, and the carried
// trajectory then matches stepping the donor, through the ID/name-matching
// path churn and admission trials use.
func TestCarryFromWarmStart(t *testing.T) {
	w := workload.Base()
	donor, err := NewEngine(w, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	donor.Run(60, nil)

	recv, err := NewEngine(w.Clone(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.CarryFrom(donor)

	ds, rs := donor.Snapshot(), recv.Snapshot()
	for ri := range ds.Mu {
		if ds.Mu[ri] != rs.Mu[ri] {
			t.Fatalf("mu[%d]: donor %v receiver %v", ri, ds.Mu[ri], rs.Mu[ri])
		}
	}
	for ti := range ds.LatMs {
		for si := range ds.LatMs[ti] {
			if ds.LatMs[ti][si] != rs.LatMs[ti][si] {
				t.Fatalf("lat[%d][%d]: donor %v receiver %v", ti, si, ds.LatMs[ti][si], rs.LatMs[ti][si])
			}
		}
	}

	for i := 0; i < 50; i++ {
		donor.Step()
		recv.Step()
		dp, rp := donor.Probe(), recv.Probe()
		if dp.Utility != rp.Utility {
			t.Fatalf("step %d: carried engine diverged: donor %v receiver %v", i, dp.Utility, rp.Utility)
		}
	}
}

// TestCarryFromPartialOverlap: a receiver sharing only part of the donor's
// problem carries the overlap and cold-starts the rest.
func TestCarryFromPartialOverlap(t *testing.T) {
	donor, err := NewEngine(twoTaskOneResource(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	donor.Run(200, nil)

	// Same resource r0, one surviving task t1, one new task.
	w2 := twoTaskOneResource()
	w2.Tasks[1].Name = "t3"
	w2.Curves["t3"] = w2.Curves["t2"]
	delete(w2.Curves, "t2")
	recv, err := NewEngine(w2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	cold := recv.Snapshot()
	recv.CarryFrom(donor)
	warm := recv.Snapshot()

	if warm.Mu[0] != donor.Snapshot().Mu[0] {
		t.Fatalf("r0 price not carried: %v want %v", warm.Mu[0], donor.Snapshot().Mu[0])
	}
	if warm.LatMs[0][0] != donor.Snapshot().LatMs[0][0] {
		t.Fatalf("surviving t1 latency not carried")
	}
	if warm.LatMs[1][0] != cold.LatMs[1][0] {
		t.Fatalf("new task t3 should keep its cold start, got %v want %v", warm.LatMs[1][0], cold.LatMs[1][0])
	}
}

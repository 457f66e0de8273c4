package core

import (
	"testing"

	"lla/internal/price"
	"lla/internal/workload"
)

// pinTestEngine builds an engine over the base workload with the given
// solver.
func pinTestEngine(t *testing.T, solver price.Solver) *Engine {
	t.Helper()
	e, err := NewEngine(workload.Base(), Config{Workers: 1, PriceSolver: solver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestPinPriceHoldsPrice asserts a pinned price never moves under either
// resource-phase branch, in Step and in the denseStep reference, while
// unpinned prices keep iterating.
func TestPinPriceHoldsPrice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		step   stepFn
		solver price.Solver
	}{
		{"dense gradient", denseStep, price.SolverGradient},
		{"sparse gradient", (*Engine).Step, price.SolverGradient},
		{"dense newton", denseStep, price.SolverNewton},
		{"sparse newton", (*Engine).Step, price.SolverNewton},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := pinTestEngine(t, tc.solver)
			const pinMu = 3.25
			if err := e.PinPrice(0, pinMu, true); err != nil {
				t.Fatal(err)
			}
			if !e.PinnedAt(0) {
				t.Fatal("PinnedAt(0) = false after PinPrice")
			}
			for i := 0; i < 50; i++ {
				tc.step(e)
				if got := e.MuAt(0); got != pinMu {
					t.Fatalf("iter %d: pinned price moved: %v != %v", i, got, pinMu)
				}
				if !e.CongestedAt(0) {
					t.Fatalf("iter %d: pinned congestion flag lost", i)
				}
			}
			moved := false
			for ri := 1; ri < len(e.price); ri++ {
				if e.MuAt(ri) != InitialMu {
					moved = true
				}
			}
			if !moved {
				t.Fatal("no unpinned price moved in 50 iterations")
			}
		})
	}
}

// TestPinPriceDemandTracksControllers asserts the pinned resource's demand
// keeps being reduced: raising the pinned price must shrink the local share
// sum on that resource.
func TestPinPriceDemandTracksControllers(t *testing.T) {
	e := pinTestEngine(t, price.SolverGradient)
	for i := 0; i < 200; i++ {
		e.Step()
	}
	before := e.ShareSumAt(0)
	if err := e.PinPrice(0, e.MuAt(0)*50, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Step()
	}
	after := e.ShareSumAt(0)
	if !(after < before) {
		t.Fatalf("demand did not fall after 50x price pin: before=%v after=%v", before, after)
	}
}

// TestPinnedCongestionSurvivesRefresh asserts an out-of-band resource-state
// refresh (SetAvailability, on the pinned resource or another) leaves a
// pinned resource's externally owned congestion flag alone, in both
// directions of disagreement with the locally computed one.
func TestPinnedCongestionSurvivesRefresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		mu   float64
		cong bool
	}{
		{"flag set, locally uncongested", 1e6, true},
		{"flag clear, locally congested", 1e-9, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := pinTestEngine(t, price.SolverGradient)
			if err := e.PinPrice(0, tc.mu, tc.cong); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				e.Step()
			}
			if local := e.p.Resources[0].Congested(e.ShareSumAt(0)); local == tc.cong {
				t.Fatalf("local congestion flag agrees with the pinned one (%v); the case tests nothing", local)
			}
			for _, ri := range []int{0, 1} {
				if err := e.SetAvailability(e.p.Resources[ri].ID, 0.9); err != nil {
					t.Fatal(err)
				}
				if got := e.CongestedAt(0); got != tc.cong {
					t.Fatalf("after SetAvailability(resource %d): pinned congestion flag = %v, want %v", ri, got, tc.cong)
				}
			}
		})
	}
}

// TestUnpinPriceResumesPricing asserts UnpinPrice returns the resource to
// engine ownership.
func TestUnpinPriceResumesPricing(t *testing.T) {
	e := pinTestEngine(t, price.SolverGradient)
	if err := e.PinPrice(0, 1e-6, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	e.UnpinPrice(0)
	for i := 0; i < 200; i++ {
		e.Step()
	}
	if e.MuAt(0) == 1e-6 {
		t.Fatal("price never moved after UnpinPrice")
	}
}

// TestPinPriceSparseMatchesDense asserts Step stays bitwise equal to the
// denseStep reference under pinning — including pins applied and lifted
// mid-run — for every price solver and Workers {1,3}.
func TestPinPriceSparseMatchesDense(t *testing.T) {
	for _, solver := range price.Solvers() {
		for _, workers := range []int{1, 3} {
			dense, sparse := newSparsePair(t, workload.Base, workers, solver)
			var ds, ss Snapshot
			for i := 0; i < 300; i++ {
				if i == 40 {
					for _, e := range []*Engine{dense, sparse} {
						if err := e.PinPrice(1, 2.5, true); err != nil {
							t.Fatal(err)
						}
					}
				}
				if i == 150 {
					dense.UnpinPrice(1)
					sparse.UnpinPrice(1)
				}
				denseStep(dense)
				sparse.Step()
				dense.SnapshotInto(&ds)
				sparse.SnapshotInto(&ss)
				requireSnapshotsBitwiseEqual(t, i, &ds, &ss)
			}
		}
	}
}

// TestPinPriceRejectsBadInputs covers the defensive paths.
func TestPinPriceRejectsBadInputs(t *testing.T) {
	e := pinTestEngine(t, price.SolverGradient)
	if err := e.PinPrice(-1, 1, false); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := e.PinPrice(len(e.price), 1, false); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := e.PinPrice(0, -1, false); err == nil {
		t.Fatal("negative price accepted")
	}
	e.UnpinPrice(99) // no-op, must not panic
	if e.ResourceIndex("no-such-resource") != -1 {
		t.Fatal("unknown resource resolved")
	}
	if ri := e.ResourceIndex(e.p.Resources[0].ID); ri != 0 {
		t.Fatalf("ResourceIndex = %d, want 0", ri)
	}
}

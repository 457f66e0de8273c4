package price

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUpdateResourceDirection(t *testing.T) {
	// Over-subscribed resource: price rises.
	if got := UpdateResource(1, 0.5, 1.0, 1.2); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("congested update = %v, want 1.1", got)
	}
	// Under-subscribed: price falls.
	if got := UpdateResource(1, 0.5, 1.0, 0.8); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("uncongested update = %v, want 0.9", got)
	}
	// Exactly balanced: unchanged.
	if got := UpdateResource(1, 0.5, 1.0, 1.0); got != 1 {
		t.Errorf("balanced update = %v, want 1", got)
	}
}

func TestUpdateResourceProjection(t *testing.T) {
	if got := UpdateResource(0.1, 1.0, 1.0, 0.2); got != 0 {
		t.Errorf("price should project to 0, got %v", got)
	}
}

func TestUpdatePathDirection(t *testing.T) {
	// Path over deadline: price rises.
	if got := UpdatePath(1, 0.5, 90, 45); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("violated path update = %v, want 1.5", got)
	}
	// Path with slack: price falls.
	if got := UpdatePath(1, 0.5, 22.5, 45); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("slack path update = %v, want 0.75", got)
	}
	// Projection.
	if got := UpdatePath(0.01, 1, 10, 100); got != 0 {
		t.Errorf("path price should project to 0, got %v", got)
	}
}

// Property: prices never go negative and move monotonically with congestion.
func TestUpdateProperties(t *testing.T) {
	f := func(muU, gammaU, sumU uint16) bool {
		mu := float64(muU) / 100
		gamma := float64(gammaU)/1000 + 0.001
		sum := float64(sumU) / 100
		next := UpdateResource(mu, gamma, 1.0, sum)
		if next < 0 {
			return false
		}
		if sum > 1 && next < mu {
			return false // congestion must not lower the price
		}
		if sum < 1 && next > mu {
			return false // slack must not raise the price
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFixedStepSizer: under a fixed step policy the step size never moves,
// congested or not, and Reset leaves it where it was.
func TestFixedStepSizer(t *testing.T) {
	f := NewDynamics(SolverGradient, 2.5, false)
	f.Reset(1)
	if f.Gamma(0) != 2.5 {
		t.Errorf("Gamma = %v, want 2.5", f.Gamma(0))
	}
	observe(f, true)
	observe(f, false)
	f.Reset(1)
	if f.Gamma(0) != 2.5 {
		t.Errorf("a fixed step must never change, got %v", f.Gamma(0))
	}
}

func TestAdaptiveDoublesWhileCongested(t *testing.T) {
	a := newDyn(SolverGradient, 1)
	if a.Gamma(0) != 1 {
		t.Fatalf("initial Gamma = %v, want 1", a.Gamma(0))
	}
	observe(a, true)
	if a.Gamma(0) != 2 {
		t.Errorf("after 1 congested iter Gamma = %v, want 2", a.Gamma(0))
	}
	observe(a, true)
	observe(a, true)
	if a.Gamma(0) != 8 {
		t.Errorf("after 3 congested iters Gamma = %v, want 8", a.Gamma(0))
	}
	observe(a, false)
	if a.Gamma(0) != 1 {
		t.Errorf("after decongestion Gamma = %v, want 1 (revert to base)", a.Gamma(0))
	}
}

// TestAdaptiveCap: ten doublings take base 1 exactly to the cap, and further
// congestion leaves it there.
func TestAdaptiveCap(t *testing.T) {
	d := newDyn(SolverGradient, 1)
	for i := 0; i < 10; i++ {
		observe(d, true)
	}
	if d.Gamma(0) != DefaultAdaptiveMax {
		t.Errorf("Gamma after 10 doublings = %v, want the cap %v", d.Gamma(0), DefaultAdaptiveMax)
	}
	for i := 0; i < 30; i++ {
		observe(d, true)
	}
	if d.Gamma(0) != DefaultAdaptiveMax {
		t.Errorf("Gamma = %v, want capped at %v", d.Gamma(0), DefaultAdaptiveMax)
	}
}

func TestAdaptiveReset(t *testing.T) {
	a := NewDynamics(SolverGradient, 0.5, true)
	a.Reset(1)
	observe(a, true)
	a.Reset(1)
	if a.Gamma(0) != 0.5 {
		t.Errorf("after Reset Gamma = %v, want 0.5", a.Gamma(0))
	}
}

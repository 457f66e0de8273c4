package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.3)
	if e.Initialized() {
		t.Fatal("fresh EWMA should not be initialized")
	}
	if !math.IsNaN(e.Value()) {
		t.Fatal("fresh EWMA should return NaN")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value = %v, want 10", e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(0)
	e.Add(10)
	if got := e.Value(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("value = %v, want 5", got)
	}
	e.Add(10)
	if got := e.Value(); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("value = %v, want 7.5", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("value = %v, want 42", e.Value())
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(1)
	e.Reset()
	if e.Initialized() || !math.IsNaN(e.Value()) {
		t.Fatal("Reset did not clear state")
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for alpha=%v", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// Property: the EWMA always lies within [min, max] of the observations.
func TestEWMAWithinEnvelope(t *testing.T) {
	f := func(values []float64) bool {
		e := NewEWMA(0.3)
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			e.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			any = true
		}
		if !any {
			return true
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

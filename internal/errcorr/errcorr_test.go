package errcorr

import (
	"math"
	"testing"

	"lla/internal/stats"
)

func reservoirOf(values ...float64) *stats.Reservoir {
	r := stats.NewReservoir(1024)
	for _, v := range values {
		r.Add(v)
	}
	return r
}

func constSamples(v float64, n int) *stats.Reservoir {
	r := stats.NewReservoir(1024)
	for i := 0; i < n; i++ {
		r.Add(v)
	}
	return r
}

func TestCorrectorLearnsNegativeError(t *testing.T) {
	c := New()
	if c.ErrMs() != 0 || c.Initialized() {
		t.Fatal("fresh corrector should report zero error")
	}
	// Model predicts 35ms; measured p95 is 17.5ms.
	for i := 0; i < 50; i++ {
		if !c.Observe(constSamples(17.5, 100), 35) {
			t.Fatal("observation rejected")
		}
	}
	if got := c.ErrMs(); math.Abs(got-(-17.5)) > 0.1 {
		t.Errorf("ErrMs = %v, want ≈ -17.5", got)
	}
}

func TestCorrectorUsesHighPercentile(t *testing.T) {
	c := New()
	// 100 samples 1..100 against a zero prediction: the first observation
	// sets the error to the sampled p95 (≈95), far from the median (≈50).
	r := stats.NewReservoir(1024)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	c.Observe(r, 0)
	if got := c.ErrMs(); math.Abs(got-95) > 0.5 {
		t.Errorf("ErrMs = %v, want ≈ 95 (p95-based)", got)
	}
}

func TestCorrectorRequiresMinSamples(t *testing.T) {
	c := New()
	if c.Observe(reservoirOf(1, 2, 3), 5) || c.Observe(constSamples(1, minSamples-1), 5) {
		t.Error("observation with too few samples should be rejected")
	}
	if c.ErrMs() != 0 {
		t.Errorf("ErrMs = %v, want 0", c.ErrMs())
	}
	if !c.Observe(constSamples(1, minSamples), 5) {
		t.Errorf("observation with %d samples should be accepted", minSamples)
	}
}

func TestCorrectorSmoothing(t *testing.T) {
	c := New()
	c.Observe(constSamples(10, minSamples), 20) // err -10
	c.Observe(constSamples(20, minSamples), 20) // err 0 -> smoothed 0.7·-10 = -7
	if got := c.ErrMs(); math.Abs(got-(-7)) > 1e-9 {
		t.Errorf("ErrMs = %v, want -7", got)
	}
	c.Reset()
	if c.ErrMs() != 0 || c.Initialized() {
		t.Error("Reset did not clear state")
	}
}

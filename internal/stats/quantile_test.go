package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileEmpty(t *testing.T) {
	if v := Quantile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("Quantile(nil) = %v, want NaN", v)
	}
}

func TestQuantileOutOfRange(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if v := Quantile([]float64{1, 2}, q); !math.IsNaN(v) {
			t.Errorf("Quantile(q=%v) = %v, want NaN", q, v)
		}
	}
}

func TestQuantileSingle(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1} {
		if v := Quantile([]float64{7}, q); v != 7 {
			t.Errorf("Quantile([7], %v) = %v, want 7", q, v)
		}
	}
}

func TestQuantileKnownValues(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	samples := []float64{3, 1, 2}
	Quantile(samples, 0.5)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", samples)
	}
}

// Property: the quantile is always within [min, max] and monotone in q.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q1u, q2u uint8) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		q1 := float64(q1u) / 255
		q2 := float64(q2u) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(samples, q1), Quantile(samples, q2)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		return v1 >= lo && v2 <= hi && v1 <= v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(100)
	for i := 1; i <= 50; i++ {
		r.Add(float64(i))
	}
	if got := r.Quantile(0.5); math.Abs(got-25.5) > 1e-9 {
		t.Errorf("median = %v, want 25.5", got)
	}
	if r.Count() != 50 {
		t.Errorf("Count = %d, want 50", r.Count())
	}
}

func TestReservoirSamplingApproximates(t *testing.T) {
	r := NewReservoir(2000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		r.Add(rng.Float64())
	}
	if got := r.Quantile(0.9); math.Abs(got-0.9) > 0.05 {
		t.Errorf("p90 of U(0,1) = %v, want ~0.9", got)
	}
	if r.Count() != 100000 {
		t.Errorf("Count = %d, want 100000", r.Count())
	}
}

func TestReservoirReset(t *testing.T) {
	r := NewReservoir(4)
	r.Add(1)
	r.Reset()
	if r.Count() != 0 || !math.IsNaN(r.Quantile(0.5)) {
		t.Fatal("Reset did not clear reservoir")
	}
}

func TestReservoirSnapshotIsCopy(t *testing.T) {
	r := NewReservoir(4)
	r.Add(1)
	snap := r.Snapshot()
	snap[0] = 99
	if r.Quantile(0.5) == 99 {
		t.Fatal("Snapshot aliases internal storage")
	}
}

func TestReservoirPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	NewReservoir(0)
}

package sched

import "testing"

// benchScheduler measures jobs/second through a saturated 4-flow scheduler.
func benchScheduler(b *testing.B, mk func() Scheduler) {
	s := mk()
	weights := []float64{0.1, 0.2, 0.3, 0.4}
	for f, w := range weights {
		s.SetWeight(0, f, w)
	}
	done := 0
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enqueue(now, &Job{Flow: i % 4, DemandMs: 0.25, Done: func(float64) { done++ }})
		now += 0.25 // arrival rate equals capacity: stays busy, bounded queue
		s.AdvanceTo(now)
	}
	if done == 0 && b.N > 8 {
		b.Fatal("no completions")
	}
}

func BenchmarkGPS(b *testing.B)     { benchScheduler(b, func() Scheduler { return NewGPS() }) }
func BenchmarkQuantum(b *testing.B) { benchScheduler(b, func() Scheduler { return NewQuantum(1) }) }

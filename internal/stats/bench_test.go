package stats

import "testing"

func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
	}
}

func BenchmarkQuantileExact(b *testing.B) {
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = float64((i * 2654435761) % 10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(samples, 0.95)
	}
}

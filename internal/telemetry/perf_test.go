package telemetry

import "testing"

// BenchmarkHotTelemetryCounter times a held counter handle's increment;
// TestHotPathAllocationFree pins that it allocates nothing.
func BenchmarkHotTelemetryCounter(b *testing.B) {
	c := NewRegistry().Counter("bench_hits", "", "kind").With("hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHotTelemetryHistogram is the same for observations.
func BenchmarkHotTelemetryHistogram(b *testing.B) {
	h := NewRegistry().Histogram("bench_latency_seconds", "", DefBuckets).With()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}

// BenchmarkHotTelemetryCounterParallel measures contended increments — the
// shape a busy worker pool produces.
func BenchmarkHotTelemetryCounterParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_parallel", "").With()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

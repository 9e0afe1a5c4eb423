package experiments

import (
	"context"
	"testing"
)

// BenchmarkHotColdMeshJob is the simulation of one cold mesh job as the simd
// daemon runs the spec {"type":"mesh","scale":{"warmup_cycles":300,
// "measure_cycles":1000},"mesh":{"sizes":[4]}}: the quick scale with those
// cycle counts, one 4x4 mesh under global-age, built, warmed, measured and
// drained. B/op is what a cold job allocates in the simulator, apart from
// the daemon's spec, hash and payload work.
func BenchmarkHotColdMeshJob(b *testing.B) {
	sc := Quick()
	sc.WarmupCycles, sc.MeasureCycles = 300, 1000
	sc.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ScalingStudyCtx(context.Background(), []int{4}, nil, false, sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered[0] == 0 {
			b.Fatal("the mesh delivered nothing")
		}
	}
}

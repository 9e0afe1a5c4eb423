package experiments

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkHotColdMeshJob is the simulation of one cold mesh job as the simd
// daemon runs the spec {"type":"mesh","scale":{"warmup_cycles":300,
// "measure_cycles":1000},"mesh":{"sizes":[4]}}: the quick scale with those
// cycle counts, one 4x4 mesh under global-age, built, warmed, measured and
// drained. B/op is what a cold job allocates in the simulator, apart from
// the daemon's spec, hash and payload work.
func BenchmarkHotColdMeshJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldMeshJob(b)
	}
}

// coldMeshJob runs the simulation of one cold mesh job once.
func coldMeshJob(tb testing.TB) {
	sc := Quick()
	sc.WarmupCycles, sc.MeasureCycles = 300, 1000
	sc.Seed = 1
	res, err := ScalingStudyCtx(context.Background(), []int{4}, nil, false, sc)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Delivered[0] == 0 {
		tb.Fatal("the mesh delivered nothing")
	}
}

// TestColdMeshJobAllocationBudget holds the simulation of one cold mesh job
// (BenchmarkHotColdMeshJob's spec) to 38 KB: a 96-byte message, node queues
// and VC buffers threaded through the messages, and per-node tables sized
// once keep it near 37 KB, where 120-byte messages, slice-backed queues and
// tables grown node by node took 41 KB.
func TestColdMeshJobAllocationBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	coldMeshJob(t)
	runtime.ReadMemStats(&after)
	const budget = 38 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one cold mesh job allocates %d bytes", got)
	if got > budget {
		t.Errorf("one cold mesh job allocates %d bytes, want at most %d", got, budget)
	}
}

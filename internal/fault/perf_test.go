package fault

import (
	"testing"

	"mlnoc/internal/noc"
)

// BenchmarkHotTableRebuild times one TableRouting.Rebuild on a degraded mesh:
// the benchmark harness's mesh32_sparse_faulted network (32x32, the east link
// of the centre router and the south link of the router below it dead), and
// an 8x8 mesh damaged the same way. Run with -cpu 1 to compare set-up costs.
func BenchmarkHotTableRebuild(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"mesh32", 32}, {"mesh8", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			net, _ := noc.BuildMeshCores(noc.Config{Width: tc.size, Height: tc.size, VCs: 3, BufferCap: 4})
			mid := tc.size / 2
			net.SetLinkDown(net.RouterAt(mid, mid).ID(), noc.PortEast, true)
			net.SetLinkDown(net.RouterAt(mid, mid+1).ID(), noc.PortSouth, true)
			tr := NewTableRouting(net)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Rebuild()
			}
		})
	}
}

package noc_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mlnoc/internal/arb"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// benchMesh builds a loaded 8x8 mesh under uniform-random traffic with the
// global-age arbiter — the steady-state Step workload of the Fig. 5 sweeps, at
// the benchmark's mesh8_dense operating point: 0.18 per node per cycle is 90%
// of saturation, so injection queues stay empty and the loop has a steady
// state (at 0.30 they grow ~6 messages a cycle, which is what the 6 allocs /
// 1.1 KB per op this benchmark used to report were).
func benchMesh() (*noc.Network, *traffic.Injector) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.18, rand.New(rand.NewSource(17)))
	in.Classes = 3
	return net, in
}

// TestNetworkStepZeroAllocs pins the zero-allocation contract: once warm
// (message freelist populated, buffer rings grown), a
// simulation cycle performs no heap allocations — at a light load, at the
// benchmark's mesh8_dense operating point, under fault.TableRouting with a
// dead link, and through the router-level matchers (iSLIP and the wavefront
// allocator, which keep their scratch on themselves). All rates are below
// saturation so injection queues and the in-flight population are stable.
func TestNetworkStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rate   float64
		faulty bool
		policy noc.Policy
	}{
		{"light", 0.1, false, arb.NewGlobalAge()},
		{"mesh8_dense", 0.18, false, arb.NewGlobalAge()},
		{"table-routing-dead-link", 0.1, true, arb.NewGlobalAge()},
		{"islip", 0.1, false, arb.NewISLIP(2)},
		{"wavefront", 0.1, false, arb.NewWavefront()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
			net.SetPolicy(tc.policy)
			if tc.faulty {
				net.SetLinkDown(net.RouterAt(4, 4).ID(), noc.PortEast, true)
				net.SetRouting(fault.NewTableRouting(net))
			}
			in := traffic.NewInjector(cores, traffic.UniformRandom{}, tc.rate, rand.New(rand.NewSource(17)))
			in.Classes = 3
			for i := 0; i < 5000; i++ {
				in.Tick()
				net.Step()
			}
			allocs := testing.AllocsPerRun(500, func() {
				in.Tick()
				net.Step()
			})
			if allocs != 0 {
				t.Fatalf("steady-state Tick+Step allocates %v objects per cycle, want 0", allocs)
			}
		})
	}
}

// TestStepAfterResetStatsZeroAllocs pins that a ResetStats before a measured
// window (the scaling study, core training and traffic all take one) does not
// make the window allocate: PerSource is sized as nodes attach and zeroed in
// place.
// It counts runtime mallocs over the whole window, because AllocsPerRun's
// integer division hides fewer than one allocation per cycle. A saturating
// burst, drained, first grows every buffer ring and the message freelist to
// what the light load after it needs.
func TestStepAfterResetStatsZeroAllocs(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.4, rand.New(rand.NewSource(17)))
	in.Classes = 3
	for i := 0; i < 1500; i++ {
		in.Tick()
		net.Step()
	}
	if !net.Drain(100000) {
		t.Fatal("the warm-up burst did not drain")
	}
	in.Rate = 0.1
	for i := 0; i < 3000; i++ {
		in.Tick()
		net.Step()
	}
	net.ResetStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 500; i++ {
		in.Tick()
		net.Step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("the 500 cycles after ResetStats made %d mallocs, want 0", n)
	}
	if net.Stats().Delivered == 0 {
		t.Fatal("vacuous: nothing delivered after ResetStats")
	}
}

func BenchmarkHotNetworkStep(b *testing.B) {
	net, in := benchMesh()
	for i := 0; i < 5000; i++ {
		in.Tick()
		net.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
	}
}

// largeMesh builds the network the BenchmarkHotLargeMeshStep* benchmarks
// step: size x size routers with one core each, 3 VCs, 8-deep buffers,
// global-age arbitration and uniform traffic at rate. faulted kills two
// interior links for the whole run and has fault.TableRouting steer around
// them. The rate must stay below the topology's saturation point (the mesh
// bisection bound shrinks as 2/size for uniform traffic) or the injection
// queues and message freelist grow — and allocate — without bound.
//
// It returns the network warmed up past the cycles in which Step still
// allocates: the in-flight population, the message freelist and the per-node
// queues take a few thousand cycles to reach their steady state, and a 64x64
// mesh at a sparse rate takes several times that.
func largeMesh(size int, rate float64, faulted bool) (*noc.Network, *traffic.Injector) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 8})
	net.SetPolicy(arb.NewGlobalAge())
	if faulted {
		mid := size / 2
		net.SetLinkDown(net.RouterAt(mid, mid).ID(), noc.PortEast, true)
		net.SetLinkDown(net.RouterAt(mid, mid+1).ID(), noc.PortSouth, true)
		net.SetRouting(fault.NewTableRouting(net))
	}
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, rand.New(rand.NewSource(17)))
	in.Classes = 3
	warmup := 3000
	if size >= 64 {
		warmup = 15000
	}
	for i := 0; i < warmup; i++ {
		in.Tick()
		net.Step()
	}
	return net, in
}

// TestSparseStepZeroAllocs pins the zero-alloc contract on the large-mesh
// benchmarks' networks: the active-set engine's target regime, where almost
// every router and node is skipped each cycle (healthy and with two dead
// links), and the loaded 16x16 mesh.
func TestSparseStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		size    int
		rate    float64
		faulted bool
	}{
		{"16x16", 16, 0.1, false},
		{"Sparse16x16", 16, 0.02, false},
		{"Sparse32x32", 32, 0.005, false},
		{"Sparse64x64", 64, 0.002, false},
		{"Sparse32x32Faulted", 32, 0.005, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, in := largeMesh(tc.size, tc.rate, tc.faulted)
			allocs := testing.AllocsPerRun(500, func() {
				in.Tick()
				net.Step()
			})
			if allocs != 0 {
				t.Fatalf("steady-state Tick+Step allocates %v objects per cycle, want 0", allocs)
			}
		})
	}
}

// benchLargeMesh measures steady-state stepping of largeMesh, reporting
// delivered messages/sec/core — the headline scaling metric — and the mean
// number of routers the active set visits, so the sparseness of the regime is
// visible next to the ns/op.
func benchLargeMesh(b *testing.B, size int, rate float64, faulted bool) {
	net, in := largeMesh(size, rate, faulted)
	before := net.Stats().Delivered
	var activeSum int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
		activeSum += int64(net.ActiveRouters())
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if delivered := net.Stats().Delivered - before; elapsed > 0 {
		b.ReportMetric(float64(delivered)/elapsed/float64(len(in.Nodes)), "msgs/s/core")
	}
	b.ReportMetric(float64(activeSum)/float64(b.N), "active-routers")
}

func BenchmarkHotLargeMeshStep16x16(b *testing.B)       { benchLargeMesh(b, 16, 0.1, false) }
func BenchmarkHotLargeMeshStep32x32(b *testing.B)       { benchLargeMesh(b, 32, 0.05, false) }
func BenchmarkHotLargeMeshStepSparse16x16(b *testing.B) { benchLargeMesh(b, 16, 0.02, false) }
func BenchmarkHotLargeMeshStepSparse32x32(b *testing.B) { benchLargeMesh(b, 32, 0.005, false) }
func BenchmarkHotLargeMeshStepSparse64x64(b *testing.B) { benchLargeMesh(b, 64, 0.002, false) }
func BenchmarkHotLargeMeshStepSparse32x32Faulted(b *testing.B) {
	benchLargeMesh(b, 32, 0.005, true)
}

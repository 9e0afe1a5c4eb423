package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// runUniform drives a small mesh under uniform-random traffic with the suite
// attached and returns the network and suite.
func runUniform(t *testing.T, cfg SuiteConfig, rate float64, cycles int64) (*noc.Network, *Suite) {
	t.Helper()
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2})
	net.SetPolicy(arb.NewGlobalAge())
	suite := Attach(net, cfg)
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, rand.New(rand.NewSource(5)))
	in.Classes = 2
	for i := int64(0); i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	return net, suite
}

func TestCollectorCountsMatchStats(t *testing.T) {
	net, suite := runUniform(t, SuiteConfig{SampleEvery: 1}, 0.1, 3000)
	snap := suite.Snapshot()
	st := net.Stats()

	if snap.Injected != st.Injected || snap.Delivered != st.Delivered {
		t.Fatalf("collector injected/delivered %d/%d, stats %d/%d",
			snap.Injected, snap.Delivered, st.Injected, st.Delivered)
	}
	if snap.Injected == 0 || snap.Delivered == 0 {
		t.Fatal("no traffic observed")
	}
	if snap.InFlight != net.InFlight() {
		t.Fatalf("in flight %d, want %d", snap.InFlight, net.InFlight())
	}
	// Every delivered message was granted at least once (ejection grant);
	// every grant moved a message, so grants >= deliveries.
	if g := snap.TotalGrants(); g < snap.Delivered {
		t.Fatalf("grants %d < deliveries %d", g, snap.Delivered)
	}
	// Per-router injected/delivered roll up to the totals.
	var injected, delivered int64
	for _, r := range snap.Routers {
		injected += r.Injected
		delivered += r.Delivered
	}
	if injected != snap.Injected || delivered != snap.Delivered {
		t.Fatalf("per-router sums %d/%d, totals %d/%d",
			injected, delivered, snap.Injected, snap.Delivered)
	}
	if snap.Samples != 3000 {
		t.Fatalf("samples = %d, want 3000", snap.Samples)
	}
	// Under sustained contention some port must have recorded occupancy.
	var occ float64
	for _, r := range snap.Routers {
		for _, p := range r.Ports {
			occ += p.AvgOccupancy
		}
	}
	if occ == 0 {
		t.Fatal("no occupancy sampled under load")
	}
}

func TestCollectorSampling(t *testing.T) {
	_, suite := runUniform(t, SuiteConfig{SampleEvery: 10}, 0.05, 1000)
	snap := suite.Snapshot()
	if snap.Samples != 100 {
		t.Fatalf("samples = %d, want 100", snap.Samples)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	_, suite := runUniform(t, SuiteConfig{
		SampleEvery: 1,
		Watchdog:    &WatchdogConfig{Threshold: 100000},
	}, 0.1, 2000)
	snap := suite.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(*snap, back) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", *snap, back)
	}
}

// TestSnapshotLatencyQuantiles pins the end-to-end latency quantiles added to
// the snapshot: present when traffic was delivered, ordered, and bounded by
// the engine's exact latency statistics.
func TestSnapshotLatencyQuantiles(t *testing.T) {
	net, suite := runUniform(t, SuiteConfig{SampleEvery: 1}, 0.1, 3000)
	snap := suite.Snapshot()
	if snap.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
	if snap.LatencyP50 <= 0 {
		t.Fatalf("LatencyP50 = %v, want > 0", snap.LatencyP50)
	}
	if snap.LatencyP50 > snap.LatencyP95 || snap.LatencyP95 > snap.LatencyP99 {
		t.Fatalf("quantiles not ordered: p50 %v, p95 %v, p99 %v",
			snap.LatencyP50, snap.LatencyP95, snap.LatencyP99)
	}
	st := net.Stats()
	if snap.LatencyP99 > st.Latency.Max() {
		t.Fatalf("p99 %v exceeds exact max %v", snap.LatencyP99, st.Latency.Max())
	}
	if snap.LatencyP50 > st.Latency.Max() || snap.LatencyP99 < st.Latency.Min() {
		t.Fatalf("quantiles outside the exact latency range [%v, %v]",
			st.Latency.Min(), st.Latency.Max())
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
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
		Watchdog:    &WatchdogConfig{MaxHeadAge: 100000, LivelockWindow: 100000},
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

// TestRegistryOnRecord checks the streaming seam: the hook sees every
// snapshot with its name, after the registry stores it (so the hook can read
// it back), and recording without a hook still works.
func TestRegistryOnRecord(t *testing.T) {
	reg := NewRegistry()
	reg.Record("before-hook", &Snapshot{Cycle: 1}) // no hook installed: no-op

	var mu sync.Mutex
	seen := map[string]int64{}
	reg.SetOnRecord(func(name string, s *Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		if got := reg.Get(name); got != s {
			t.Errorf("hook for %q ran before the snapshot was stored", name)
		}
		seen[name] = s.Cycle
	})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg.Record(string(rune('a'+w)), &Snapshot{Cycle: int64(w)})
		}(w)
	}
	wg.Wait()

	if len(seen) != 4 {
		t.Fatalf("hook observed %d records, want 4: %v", len(seen), seen)
	}
	for w := 0; w < 4; w++ {
		if seen[string(rune('a'+w))] != int64(w) {
			t.Fatalf("hook saw wrong snapshot for %c: %v", 'a'+w, seen)
		}
	}
	if _, ok := seen["before-hook"]; ok {
		t.Fatal("hook retroactively saw a record from before installation")
	}
}

func TestRegistryConcurrentRecord(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := string(rune('a'+w)) + "-" + strings.Repeat("x", i%3)
				reg.Record(name, &Snapshot{Cycle: int64(i)})
				_ = reg.Get(name)
				_ = reg.Len()
			}
		}(w)
	}
	wg.Wait()
	if reg.Len() != 8*3 {
		t.Fatalf("registry has %d snapshots, want 24", reg.Len())
	}
	names := reg.Names()
	if !sortedStrings(names) {
		t.Fatalf("names not sorted: %v", names)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]struct {
		Name     string    `json:"name"`
		Snapshot *Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("registry JSON does not parse: %v", err)
	}
	if len(doc["runs"]) != 24 {
		t.Fatalf("registry JSON has %d runs, want 24", len(doc["runs"]))
	}
}

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
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

package noc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// cutRouting is X-Y routing with cacheable verdicts that declares a fixed
// destination set unreachable, so heads are evicted from the routing pass.
type cutRouting struct {
	cut map[NodeID]bool
}

func (cutRouting) Name() string    { return "cut-xy" }
func (cutRouting) ShardSafe() bool { return true }
func (c cutRouting) Route(r *Router, m *Message) PortID {
	if c.cut[m.Dst] {
		return RouteUnreachable
	}
	return r.XYPort(m)
}

// traceRun drives a seeded workload on a fresh network and returns the
// delivery log, one "id:src->dst@cycle" line per delivered message. faults,
// when non-nil, runs before every Step with the cycle number; opts configure
// the engine before the first cycle (legacyOpt, fullScanOpt).
func traceRun(t *testing.T, policy Policy, cfg Config, cycles int,
	routing Routing, faults func(net *Network, cycle int),
	opts ...func(net *Network)) (*Network, []string) {
	t.Helper()
	net, nodes := BuildMeshCores(cfg)
	net.SetPolicy(policy)
	if routing != nil {
		net.SetRouting(routing)
	}
	for _, opt := range opts {
		opt(net)
	}
	var log []string
	for _, nd := range nodes {
		nd.Sink = func(now int64, m *Message) {
			log = append(log, fmt.Sprintf("%d:%d->%d@%d", m.ID, m.Src, m.Dst, now))
		}
	}
	rng := rand.New(rand.NewSource(21))
	var id uint64
	for cycle := 0; cycle < cycles; cycle++ {
		if faults != nil {
			faults(net, cycle)
		}
		for i, nd := range nodes {
			if rng.Float64() >= 0.3 {
				continue
			}
			d := rng.Intn(len(nodes) - 1)
			if d >= i {
				d++
			}
			id++
			m := net.AllocMessage()
			m.ID = id
			m.Dst = nodes[d].ID
			m.Class = Class(rng.Intn(cfg.VCs))
			m.SizeFlits = 1 + 4*rng.Intn(2)
			nd.Inject(m)
		}
		net.Step()
	}
	net.Drain(8000)
	return net, log
}

// requireIdentical fails unless the run's delivery trace and stats are
// bit-identical to the baseline's; leg names the run in failures.
func requireIdentical(t *testing.T, leg string, base *Network, baseLog []string, got *Network, gotLog []string) {
	t.Helper()
	if len(baseLog) == 0 {
		t.Fatal("no deliveries recorded; workload is vacuous")
	}
	if len(gotLog) != len(baseLog) {
		t.Fatalf("%s: delivery counts diverge: %d, baseline %d", leg, len(gotLog), len(baseLog))
	}
	for i := range baseLog {
		if gotLog[i] != baseLog[i] {
			t.Fatalf("%s: delivery %d diverges: %q, baseline %q", leg, i, gotLog[i], baseLog[i])
		}
	}
	bs, gs := base.Stats(), got.Stats()
	if bs.Injected != gs.Injected || bs.Delivered != gs.Delivered ||
		bs.Latency.Mean() != gs.Latency.Mean() || bs.NetLatency.Mean() != gs.NetLatency.Mean() {
		t.Fatalf("%s: stats diverge: inj=%d del=%d avg=%v, baseline inj=%d del=%d avg=%v",
			leg, gs.Injected, gs.Delivered, gs.Latency.Mean(), bs.Injected, bs.Delivered, bs.Latency.Mean())
	}
	if base.FaultStats() != got.FaultStats() {
		t.Fatalf("%s: fault stats diverge: %+v, baseline %+v", leg, got.FaultStats(), base.FaultStats())
	}
}

// TestDeliveryTracePinned holds the stepping engine's seeded runs to literals:
// an FNV-64a digest of the delivery log (each line followed by a newline) plus
// the counters a run reports. The invariance suites compare the mask kernel
// and both walks with the legacy oracle, so they cannot see the oracle and the
// kernel drifting together; this table can. The literals were recorded on the
// last commit that had a second, parallel two-phase engine, from its
// sequential runs: deleting that engine moved no message.
func TestDeliveryTracePinned(t *testing.T) {
	linkAndFreeze := func(net *Network, cycle int) {
		switch cycle {
		case 200, 450:
			down := cycle == 200
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, down)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, down)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), down)
		}
	}
	mesh8 := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	torus8 := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2, Torus: true}
	mesh16 := Config{Width: 16, Height: 16, VCs: 3, BufferCap: 4}
	cases := []struct {
		name    string
		pol     Policy
		cfg     Config
		cycles  int
		routing Routing
		faults  func(*Network, int)

		digest              uint64
		injected, delivered int64
		latencyBits         uint64
		fstats              FaultStats
	}{
		{name: "mesh8x8/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600,
			digest: 0x28be950dc5d3b889, injected: 11645, delivered: 11645, latencyBits: 0x4079841bb30e9e76},
		{name: "mesh8x8/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600,
			digest: 0x1a25533905d8dea, injected: 11645, delivered: 11645, latencyBits: 0x4079d76d802fd61b},
		// The DOR torus wedges at this load (ROADMAP 4a): 256 messages never drain.
		{name: "torus8x8/policy", pol: orderPolicy{}, cfg: torus8, cycles: 600,
			digest: 0xbaaeaaa08da4af9f, injected: 3349, delivered: 3093, latencyBits: 0x404fb6563e681f2a},
		{name: "torus8x8/matcher", pol: orderMatcher{}, cfg: torus8, cycles: 600,
			digest: 0x9fb11e3d9cf1096e, injected: 2459, delivered: 2203, latencyBits: 0x4047ff97e15263b3},
		{name: "mesh16x16/policy", pol: orderPolicy{}, cfg: mesh16, cycles: 300,
			digest: 0xdfed42c2993cab46, injected: 23158, delivered: 23158, latencyBits: 0x407f7927bad7d3f1},
		{name: "mesh16x16/matcher", pol: orderMatcher{}, cfg: mesh16, cycles: 300,
			digest: 0xf5e94f1c22addd1b, injected: 23158, delivered: 23158, latencyBits: 0x407f74818f05e728},
		{name: "faulted/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600, faults: linkAndFreeze,
			digest: 0x20e380169f3b0b80, injected: 11645, delivered: 11645, latencyBits: 0x40820b1cdd54ec4e,
			fstats: FaultStats{DowntimeCycles: 500, Requeued: 1}},
		{name: "faulted/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600, faults: linkAndFreeze,
			digest: 0x6cb28485473038b0, injected: 11645, delivered: 11645, latencyBits: 0x4081a5f84e430ce5,
			fstats: FaultStats{DowntimeCycles: 500, Requeued: 2}},
		{name: "unreachable", pol: orderPolicy{}, cfg: mesh8, cycles: 600,
			routing: cutRouting{cut: map[NodeID]bool{10: true, 37: true}},
			digest:  0x9d4eb4a1e57d7f78, injected: 11645, delivered: 11271, latencyBits: 0x40797734abfbe95b,
			fstats: FaultStats{Unreachable: 374}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, log := traceRun(t, tc.pol, tc.cfg, tc.cycles, tc.routing, tc.faults)
			h := fnv.New64a()
			for _, line := range log {
				h.Write([]byte(line))
				h.Write([]byte{'\n'})
			}
			st := net.Stats()
			latency := math.Float64bits(st.Latency.Mean())
			if len(log) == 0 {
				t.Fatal("no deliveries recorded; workload is vacuous")
			}
			if h.Sum64() != tc.digest || st.Injected != tc.injected || st.Delivered != tc.delivered ||
				latency != tc.latencyBits || net.FaultStats() != tc.fstats {
				t.Fatalf("trace moved: digest %#x injected %d delivered %d latency bits %#x faults %+v; "+
					"pinned %#x %d %d %#x %+v", h.Sum64(), st.Injected, st.Delivered, latency, net.FaultStats(),
					tc.digest, tc.injected, tc.delivered, tc.latencyBits, tc.fstats)
			}
			checkConservation(t, net, tc.name)
		})
	}
}

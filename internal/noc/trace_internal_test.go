package noc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// orderPolicy is deliberately sensitive to candidate order and count: any
// change in the candidate lists the engine builds (extra, missing or
// reordered candidates) changes which message wins and cascades through the
// rest of the run.
type orderPolicy struct{}

func (orderPolicy) Name() string { return "order-sensitive" }

func (orderPolicy) Select(ctx *ArbContext, cands []Candidate) int {
	return int(ctx.Cycle+int64(len(cands))+int64(ctx.Out)) % len(cands)
}

// orderMatcher adds a whole-router matching with the same order sensitivity:
// per request it prefers the (cycle+len)-th candidate, falling back to the
// first whose input port is still free, and leaves the output idle otherwise.
type orderMatcher struct{ orderPolicy }

func (orderMatcher) Match(ctx *MatchContext, reqs []Request) []int {
	grants := make([]int, len(reqs))
	var used [MaxPorts]bool
	for i, req := range reqs {
		grants[i] = -1
		start := int(ctx.Cycle+int64(len(req.Cands))) % len(req.Cands)
		for k := 0; k < len(req.Cands); k++ {
			j := (start + k) % len(req.Cands)
			if !used[req.Cands[j].Port] {
				grants[i] = j
				used[req.Cands[j].Port] = true
				break
			}
		}
	}
	return grants
}

// cutRouting is X-Y routing that declares a fixed destination set
// unreachable, so heads are evicted from the routing pass.
type cutRouting struct {
	cut map[NodeID]bool
}

func (cutRouting) Name() string { return "cut-xy" }
func (c cutRouting) Route(r *Router, m *Message) PortID {
	if c.cut[m.Dst] {
		return RouteUnreachable
	}
	return r.XYPort(m)
}

// traceRun drives a seeded workload on a fresh network and returns the
// delivery log, one "id:src->dst@cycle" line per delivered message. faults,
// when non-nil, runs before every Step with the cycle number.
func traceRun(t *testing.T, policy Policy, cfg Config, cycles int,
	routing Routing, faults func(net *Network, cycle int)) (*Network, []string) {
	t.Helper()
	net, nodes := BuildMeshCores(cfg)
	net.SetPolicy(policy)
	if routing != nil {
		net.SetRouting(routing)
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
			m.SizeFlits = int32(1 + 4*rng.Intn(2))
			nd.Inject(m)
		}
		net.Step()
	}
	net.Drain(8000)
	return net, log
}

// faultSchedule kills two links of one mesh edge at cycle 200 and restores
// them at 450; core adds node (1,6)'s attach link.
func faultSchedule(core bool) func(*Network, int) {
	return func(net *Network, cycle int) {
		switch cycle {
		case 200, 450:
			down := cycle == 200
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, down)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, down)
			if core {
				net.SetLinkDown(net.RouterAt(1, 6).ID(), PortCore, down)
			}
		}
	}
}

// attachDown makes traffic toward node 10 unreachable from cycle 150 to 400
// under attachRouting.
func attachDown(net *Network, cycle int) {
	if cycle == 150 || cycle == 400 {
		nd := net.Node(10)
		net.SetLinkDown(nd.Router.ID(), nd.Port, cycle == 150)
	}
}

// pinnedTrace is one seeded traceRun and the literals it must reproduce: an
// FNV-64a digest of the delivery log (each line followed by a newline) plus
// the counters the run reports.
type pinnedTrace struct {
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
}

var (
	mesh4  = Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2}
	mesh8  = Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	torus8 = Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2, Torus: true}
	mesh16 = Config{Width: 16, Height: 16, VCs: 3, BufferCap: 4}
)

// pinnedTraces are the runs of an order-sensitive policy and matcher on mesh
// and torus, healthy, faulted and with unreachable heads. The first nine rows
// were recorded on the last commit with a parallel two-phase engine, the rest
// on the last commit with the legacy per-output gather and the full-scan walk,
// where each run was proven equal to both: deleting either engine moved no
// message. The four faulted* rows' schedule once also froze a router: they
// were re-recorded on the last commit with router freezing, from
// faultSchedule as it is now.
var pinnedTraces = []pinnedTrace{
	{name: "mesh8x8/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600,
		digest: 0x28be950dc5d3b889, injected: 11645, delivered: 11645, latencyBits: 0x4079841bb30e9e76},
	{name: "mesh8x8/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600,
		digest: 0x1a25533905d8dea, injected: 11645, delivered: 11645, latencyBits: 0x4079d76d802fd61b},
	// The DOR torus wedges at this load (the open torus deadlock: classes are
	// the VCs, so no dateline splits a ring): 256 messages never drain.
	{name: "torus8x8/policy", pol: orderPolicy{}, cfg: torus8, cycles: 600,
		digest: 0xbaaeaaa08da4af9f, injected: 3349, delivered: 3093, latencyBits: 0x404fb6563e681f2a},
	{name: "torus8x8/matcher", pol: orderMatcher{}, cfg: torus8, cycles: 600,
		digest: 0x9fb11e3d9cf1096e, injected: 2459, delivered: 2203, latencyBits: 0x4047ff97e15263b3},
	{name: "mesh16x16/policy", pol: orderPolicy{}, cfg: mesh16, cycles: 300,
		digest: 0xdfed42c2993cab46, injected: 23158, delivered: 23158, latencyBits: 0x407f7927bad7d3f1},
	{name: "mesh16x16/matcher", pol: orderMatcher{}, cfg: mesh16, cycles: 300,
		digest: 0xf5e94f1c22addd1b, injected: 23158, delivered: 23158, latencyBits: 0x407f74818f05e728},
	{name: "faulted/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600, faults: faultSchedule(false),
		digest: 0xc43259438031a331, injected: 11645, delivered: 11645, latencyBits: 0x407aa5ea968013b8,
		fstats: FaultStats{DowntimeCycles: 500, Requeued: 1}},
	{name: "faulted/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600, faults: faultSchedule(false),
		digest: 0x94628bd4d75d8613, injected: 11645, delivered: 11645, latencyBits: 0x407a7366e7d705c9,
		fstats: FaultStats{DowntimeCycles: 500, Requeued: 2}},
	{name: "unreachable", pol: orderPolicy{}, cfg: mesh8, cycles: 600,
		routing: cutRouting{cut: map[NodeID]bool{10: true, 37: true}},
		digest:  0x9d4eb4a1e57d7f78, injected: 11645, delivered: 11271, latencyBits: 0x40797734abfbe95b,
		fstats: FaultStats{Unreachable: 374}},
	{name: "mesh4x4/policy", pol: orderPolicy{}, cfg: mesh4, cycles: 600,
		digest: 0x41dbbc949090eaeb, injected: 2874, delivered: 2874, latencyBits: 0x405a24a775c1a5e4},
	{name: "mesh4x4/matcher", pol: orderMatcher{}, cfg: mesh4, cycles: 600,
		digest: 0xf7fd0b64862afcb0, injected: 2874, delivered: 2874, latencyBits: 0x405b7faa7d0f7fb9},
	{name: "faulted-core/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600, faults: faultSchedule(true),
		digest: 0x41031a1e075a8fb4, injected: 11645, delivered: 11645, latencyBits: 0x407f7a5e92e51d3b,
		fstats: FaultStats{DowntimeCycles: 750, Requeued: 1}},
	{name: "faulted-core/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600, faults: faultSchedule(true),
		digest: 0x11cf0de27fdbb0e7, injected: 11645, delivered: 11645, latencyBits: 0x407da82ef507b757,
		fstats: FaultStats{DowntimeCycles: 750, Requeued: 3}},
	{name: "unreachable-attach/policy", pol: orderPolicy{}, cfg: mesh8, cycles: 600,
		routing: attachRouting{}, faults: attachDown,
		digest: 0x18592c79774c4bf7, injected: 11645, delivered: 11596, latencyBits: 0x4079826e079826cd,
		fstats: FaultStats{DowntimeCycles: 250, Requeued: 1, Unreachable: 49}},
	{name: "unreachable-attach/matcher", pol: orderMatcher{}, cfg: mesh8, cycles: 600,
		routing: attachRouting{}, faults: attachDown,
		digest: 0xf9ec598c4a8c6f95, injected: 11645, delivered: 11600, latencyBits: 0x4079025bce90c5b0,
		fstats: FaultStats{DowntimeCycles: 250, Unreachable: 45}},
}

// lookupTrace returns the pinned row with the given name.
func lookupTrace(t *testing.T, name string) pinnedTrace {
	t.Helper()
	for _, tc := range pinnedTraces {
		if tc.name == name {
			return tc
		}
	}
	t.Fatalf("no pinned trace %q", name)
	return pinnedTrace{}
}

// check replays the run and fails unless it reproduces the literals. every,
// when non-nil, runs before every Step, after the row's fault schedule.
func (tc pinnedTrace) check(t *testing.T, every func(*Network, int)) *Network {
	t.Helper()
	hook := tc.faults
	if every != nil {
		hook = func(net *Network, cycle int) {
			if tc.faults != nil {
				tc.faults(net, cycle)
			}
			every(net, cycle)
		}
	}
	net, log := traceRun(t, tc.pol, tc.cfg, tc.cycles, tc.routing, hook)
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
	return net
}

// TestDeliveryTracePinned holds the stepping engine to every pinnedTraces row.
func TestDeliveryTracePinned(t *testing.T) {
	for _, tc := range pinnedTraces {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, nil) })
	}
}

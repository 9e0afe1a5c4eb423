package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// cutRouting is a shard-safe X-Y routing that declares a fixed destination
// set unreachable, exercising the sharded engine's fallback-and-evict path
// against the sequential one.
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

// shardRun drives a seeded workload on a fresh network and returns the
// delivery log. faults, when non-nil, runs before every Step with the cycle
// number so fault schedules stay aligned across shard counts. The activity
// threshold is zeroed so sharded runs exercise the fork/join every cycle
// regardless of load; opts run after that for per-test engine configuration
// (e.g. SetActiveStepping(false) baselines).
func shardRun(t *testing.T, policy Policy, cfg Config, shards, cycles int,
	routing Routing, faults func(net *Network, cycle int),
	opts ...func(net *Network)) (*Network, []string) {
	t.Helper()
	net, nodes := BuildMeshCores(cfg)
	net.SetPolicy(policy)
	if routing != nil {
		net.SetRouting(routing)
	}
	net.SetShards(shards)
	net.SetShardMinActive(0)
	for _, opt := range opts {
		opt(net)
	}
	if shards > 1 {
		if got := net.Shards(); got != shards {
			t.Fatalf("Shards() = %d after SetShards(%d)", got, shards)
		}
		if !net.arbState {
			t.Fatalf("network not shard-ready with routing %v", routing)
		}
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
	if shards > 1 && net.shardMinActive == 0 && net.shardForks == 0 {
		t.Fatalf("sharded run with K=%d never forked its phase-1 workers", shards)
	}
	net.SetShards(1)
	return net, log
}

// requireIdentical fails unless the sharded run's delivery trace and stats are
// bit-identical to the sequential baseline's.
func requireIdentical(t *testing.T, k int, base *Network, baseLog []string, got *Network, gotLog []string) {
	t.Helper()
	if len(baseLog) == 0 {
		t.Fatal("no deliveries recorded; workload is vacuous")
	}
	if len(gotLog) != len(baseLog) {
		t.Fatalf("K=%d delivery counts diverge: sharded %d, sequential %d", k, len(gotLog), len(baseLog))
	}
	for i := range baseLog {
		if gotLog[i] != baseLog[i] {
			t.Fatalf("K=%d delivery %d diverges: sharded %q, sequential %q", k, i, gotLog[i], baseLog[i])
		}
	}
	bs, gs := base.Stats(), got.Stats()
	if bs.Injected != gs.Injected || bs.Delivered != gs.Delivered ||
		bs.Latency.Mean() != gs.Latency.Mean() || bs.NetLatency.Mean() != gs.NetLatency.Mean() {
		t.Fatalf("K=%d stats diverge: sharded inj=%d del=%d avg=%v, sequential inj=%d del=%d avg=%v",
			k, gs.Injected, gs.Delivered, gs.Latency.Mean(), bs.Injected, bs.Delivered, bs.Latency.Mean())
	}
	if base.FaultStats() != got.FaultStats() {
		t.Fatalf("K=%d fault stats diverge: sharded %+v, sequential %+v", k, got.FaultStats(), base.FaultStats())
	}
}

// TestShardInvariance pins the tentpole contract: for every shard count the
// two-phase engine produces a delivery trace bit-identical to the sequential
// engine, on mesh and torus, for an order-sensitive per-output policy and an
// order-sensitive whole-router matcher.
func TestShardInvariance(t *testing.T) {
	cfgs := map[string]Config{
		"mesh8x8":   {Width: 8, Height: 8, VCs: 3, BufferCap: 2},
		"torus8x8":  {Width: 8, Height: 8, VCs: 3, BufferCap: 2, Torus: true},
		"mesh16x16": {Width: 16, Height: 16, VCs: 3, BufferCap: 4},
	}
	policies := map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}}
	for cname, cfg := range cfgs {
		for pname, pol := range policies {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				cycles, ks := 600, []int{2, 4, 8}
				if cfg.Width == 16 {
					// Four activity words: K=4 cuts them at word boundaries,
					// K=8 inside words; K=2 adds nothing to the 8x8 cases.
					cycles, ks = 300, []int{4, 8}
				}
				base, baseLog := shardRun(t, pol, cfg, 1, cycles, nil, nil)
				for _, k := range ks {
					net, log := shardRun(t, pol, cfg, k, cycles, nil, nil)
					requireIdentical(t, k, base, baseLog, net, log)
				}
			})
		}
	}
}

// TestShardInvarianceFaulted runs a mid-run fault schedule — a bidirectional
// link kill plus a router freeze, later repaired — under built-in X-Y routing,
// checking that the faulty-mode scan rules (frozen-router skip, full head scan
// while any output is blocked) keep every shard count bit-identical.
func TestShardInvarianceFaulted(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	faults := func(net *Network, cycle int) {
		switch cycle {
		case 200:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, true)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, true)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), true)
		case 450:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, false)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, false)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), false)
		}
	}
	for pname, pol := range map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}} {
		t.Run(pname, func(t *testing.T) {
			base, baseLog := shardRun(t, pol, cfg, 1, 600, nil, faults)
			if base.FaultStats().Requeued == 0 {
				t.Fatal("fault schedule requeued nothing; scenario is vacuous")
			}
			for _, k := range []int{2, 4, 8} {
				net, log := shardRun(t, pol, cfg, k, 600, nil, faults)
				requireIdentical(t, k, base, baseLog, net, log)
			}
		})
	}
}

// TestShardInvarianceUnreachable drives traffic at destinations a shard-safe
// routing declares unreachable, forcing the phase-1 fallback flag and the
// sequential evict-and-replay path, and checks trace identity plus the
// conservation identity Injected == Delivered + Unreachable + InFlight.
func TestShardInvarianceUnreachable(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	routing := func() Routing { return cutRouting{cut: map[NodeID]bool{10: true, 37: true}} }
	base, baseLog := shardRun(t, orderPolicy{}, cfg, 1, 600, routing(), nil)
	if base.FaultStats().Unreachable == 0 {
		t.Fatal("no unreachable evictions; fallback path not exercised")
	}
	for _, k := range []int{2, 4, 8} {
		net, log := shardRun(t, orderPolicy{}, cfg, k, 600, routing(), nil)
		requireIdentical(t, k, base, baseLog, net, log)
		checkConservation(t, net, fmt.Sprintf("K=%d", k))
	}
}

// TestSetShardsClampsAndRestores checks the SetShards edge cases: clamping to
// the router count, no-op repeats, and restoring sequential mode.
func TestSetShardsClampsAndRestores(t *testing.T) {
	net, _ := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 1, BufferCap: 2})
	if net.Shards() != 1 {
		t.Fatalf("fresh network Shards() = %d, want 1", net.Shards())
	}
	net.SetShards(64) // clamped to 4 routers
	if net.Shards() != 4 {
		t.Fatalf("Shards() = %d after SetShards(64) on 4 routers, want 4", net.Shards())
	}
	net.SetShards(4) // no-op repeat must not leak workers
	net.SetShards(0)
	if net.Shards() != 1 {
		t.Fatalf("Shards() = %d after SetShards(0), want 1", net.Shards())
	}
}

// TestSchedulePanicReportsDelay is the regression test for the schedule panic
// message: an over-length delay must be reported as a delay/wheel mismatch
// with the actual numbers, not as a generic flit-count complaint.
func TestSchedulePanicReportsDelay(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 1, BufferCap: 2, MaxFlits: 4})
	net.SetPolicy(orderPolicy{})
	// 9 flits exceed MaxFlits=4: the serialization delay overruns the 6-slot
	// delivery wheel at the first grant.
	nodes[0].Inject(&Message{ID: 1, Dst: nodes[3].ID, SizeFlits: 9})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("over-length delay did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"delay 9", "6-slot wheel", "MaxFlits=4", "9 flits"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	net.Run(4)
}

// TestPendingInjectionsCounter asserts the incremental pending-injections
// counter against a full scan of the node queues throughout a bursty run,
// including the RequeueStranded path that re-enters messages through Inject.
func TestPendingInjectionsCounter(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 2, BufferCap: 2})
	net.SetPolicy(orderPolicy{})
	scan := func() int {
		total := 0
		for _, nd := range nodes {
			total += nd.PendingInjections()
		}
		return total
	}
	check := func(when string) {
		t.Helper()
		if got, want := net.PendingInjections(), scan(); got != want {
			t.Fatalf("%s: PendingInjections() = %d, scan = %d", when, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var id uint64
	for cycle := 0; cycle < 300; cycle++ {
		// Bursts far above the one-injection-per-node-per-cycle drain rate
		// keep the queues deep, so the counter is exercised against real
		// backlogs, not the trivially empty state.
		for i, nd := range nodes {
			for burst := rng.Intn(4); burst > 0; burst-- {
				id++
				m := net.AllocMessage()
				m.ID = id
				m.Dst = nodes[(i+1+rng.Intn(len(nodes)-1))%len(nodes)].ID
				m.SizeFlits = 1
				nd.Inject(m)
			}
		}
		net.Step()
		if cycle%17 == 0 {
			check(fmt.Sprintf("cycle %d", cycle))
		}
	}
	// Requeue every buffered message back to its source queue: Inject must
	// re-count them.
	net.RequeueStranded(func(r *Router, p PortID, m *Message) bool { return true })
	check("after RequeueStranded")
	if !net.Drain(10000) {
		t.Fatal("network failed to drain")
	}
	check("after drain")
	if net.PendingInjections() != 0 {
		t.Fatalf("drained network has %d pending injections", net.PendingInjections())
	}
}

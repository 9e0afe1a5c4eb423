package main

import (
	"fmt"
	"math/rand"

	"mlnoc/internal/arb"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
	"mlnoc/internal/traffic"
)

// maxPendingAtEnd is the steady-state guard of the mesh workloads: a run that
// ends with more messages than this still waiting to enter the network was
// not in steady state, and its throughput and memory are functions of the
// run length. mesh8_dense injects at 0.18 per node per cycle, 90% of the 8x8
// saturation point (0.20), where the injection queues stay empty. It does not
// reuse BenchmarkHotNetworkStep's 0.30: past saturation the queues grow by
// about six messages a cycle without bound (255 684 pending after 40 000
// cycles), which is no state a benchmark can return to.
const maxPendingAtEnd = 64

type meshConfig struct {
	Size, BufferCap int
	Rate            float64
	Faulted         bool
	Warmup, Cycles  int // warm-up cycles; cycles per window
}

var (
	mesh8Dense   = meshConfig{Size: 8, BufferCap: 4, Rate: 0.18, Warmup: 5000, Cycles: 100}
	mesh32Sparse = meshConfig{Size: 32, BufferCap: 8, Rate: 0.005, Faulted: true, Warmup: 3000, Cycles: 50}
)

// meshInst steps one mesh under uniform-random traffic and the global-age
// arbiter. An op is one simulated cycle: Injector.Tick then Network.Step.
type meshInst struct {
	cfg meshConfig
	net *noc.Network
	in  *traffic.Injector

	// Traced instances only.
	tr   *tracer
	seed int64
	pol  *timedPolicy
	rt   *timedRouting // nil without an installed routing
	// The decorators' totals as of the previous window (for the per-window
	// spans) and as of the end of the warm-up, which ran through them too.
	winSel, winRoute       callTimer
	sel0, route0           callTimer
	cycles, delivered0     int64
	activeSum, inflightSum int64
	allocBytes             uint64 // heap bytes allocated inside Window calls
}

// buildNet makes cfg's network and injector, and the routing to install on it
// (nil for built-in X-Y); the attach-overhead segment builds its copies here.
func (cfg meshConfig) buildNet(seed int64) (*noc.Network, *traffic.Injector, noc.Routing) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: cfg.Size, Height: cfg.Size, VCs: 3, BufferCap: cfg.BufferCap})
	var routing noc.Routing
	if cfg.Faulted {
		mid := cfg.Size / 2
		net.SetLinkDown(net.RouterAt(mid, mid).ID(), noc.PortEast, true)
		net.SetLinkDown(net.RouterAt(mid, mid+1).ID(), noc.PortSouth, true)
		routing = fault.NewTableRouting(net)
	}
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, cfg.Rate, rand.New(rand.NewSource(seed)))
	in.Classes = 3
	return net, in, routing
}

func (cfg meshConfig) build(seed int64, tr *tracer, lap func()) (instance, error) {
	m := &meshInst{cfg: cfg, tr: tr, seed: seed}
	var routing noc.Routing
	m.net, m.in, routing = cfg.buildNet(seed)
	var policy noc.Policy = arb.NewGlobalAge()
	if tr != nil {
		policy, m.pol = wrapPolicy(policy)
		if routing != nil {
			routing, m.rt = wrapRouting(routing)
		}
	}
	m.net.SetPolicy(policy)
	if routing != nil {
		m.net.SetRouting(routing)
	}
	lap()
	for i := 0; i < cfg.Warmup; i++ {
		m.in.Tick()
		m.net.Step()
		if (i+1)%cfg.Cycles == 0 {
			lap()
		}
	}
	if tr != nil {
		m.sel0, m.winSel = m.pol.sel, m.pol.sel
		if m.rt != nil {
			m.route0, m.winRoute = m.rt.route, m.rt.route
		}
		m.pol.cands = 0
		m.delivered0 = m.net.Stats().Delivered
	}
	return m, nil
}

func (m *meshInst) Window() {
	if m.tr == nil {
		for i := 0; i < m.cfg.Cycles; i++ {
			m.in.Tick()
			m.net.Step()
		}
		return
	}
	alloc0 := totalAlloc()
	var tickNS, stepNS int64
	for i := 0; i < m.cfg.Cycles; i++ {
		t0 := now()
		m.in.Tick()
		t1 := now()
		m.net.Step()
		t2 := now()
		tickNS += t1 - t0
		stepNS += t2 - t1
		m.activeSum += int64(m.net.ActiveRouters())
		m.inflightSum += m.net.InFlight()
	}
	cycles := int64(m.cfg.Cycles)
	m.cycles += cycles
	m.allocBytes += totalAlloc() - alloc0

	root := m.tr.cur
	m.tr.child(root, "traffic.tick", tickNS, cycles)
	stepSpan := m.tr.child(root, "noc.step", stepNS, cycles)
	ns, calls := m.pol.sel.delta(&m.winSel)
	m.tr.child(stepSpan, "arb.select", ns, calls)
	if m.rt != nil {
		ns, calls = m.rt.route.delta(&m.winRoute)
		m.tr.child(stepSpan, "fault.route", ns, calls)
	}
}

// Check asserts the conservation identity: every message that entered the
// network was delivered, evicted as unreachable, or is still inside.
func (m *meshInst) Check() (int, string) {
	return checkConservation(m.net, m.cfg.Cycles)
}

func checkConservation(net *noc.Network, ops int) (int, string) {
	st := net.Stats()
	if un := net.FaultStats().Unreachable; st.Injected != st.Delivered+un+net.InFlight() {
		return ops, fmt.Sprintf("conservation broken at cycle %d: injected %d != delivered %d + unreachable %d + in flight %d",
			net.Cycle(), st.Injected, st.Delivered, un, net.InFlight())
	}
	return 0, ""
}

func (m *meshInst) State() string { return netState(m.net) }

// netState renders the cumulative simulated statistics of a network. The
// running latency mean depends on the order of every delivery so far, so two
// runs agree on it only if they agreed on the whole history.
func netState(net *noc.Network) string {
	st := net.Stats()
	return fmt.Sprintf("cycle=%d injected=%d delivered=%d unreachable=%d inflight=%d pending=%d latency=%s",
		net.Cycle(), st.Injected, st.Delivered, net.FaultStats().Unreachable, net.InFlight(),
		net.PendingInjections(), fmtFloat(st.Latency.Mean()))
}

func (m *meshInst) Finish() error {
	if p := m.net.PendingInjections(); p > maxPendingAtEnd {
		return fmt.Errorf("not in steady state: %d messages pending injection at the end (limit %d)", p, maxPendingAtEnd)
	}
	if m.net.Stats().Delivered == 0 {
		return fmt.Errorf("nothing was delivered")
	}
	return nil
}

func (m *meshInst) Close() {}

func (m *meshInst) Layers(out map[string]float64) {
	// Times come from the fastest windows; counts from the whole run, where
	// they are exact.
	c := m.tr.timerNS
	fast := m.tr.fastTotals()
	cyc := float64(fast["noc.step"].calls)
	selCalls, routeCalls := float64(fast["arb.select"].calls), float64(fast["fault.route"].calls)
	// A timed call's raw duration holds one clock read; its caller sees two.
	sel := nonNeg(float64(fast["arb.select"].ns)-c*selCalls) / cyc
	route := nonNeg(float64(fast["fault.route"].ns)-c*routeCalls) / cyc
	step := nonNeg(float64(fast["noc.step"].ns)-c*cyc-2*c*(selCalls+routeCalls)) / cyc
	tick := nonNeg(float64(fast["traffic.tick"].ns)-c*cyc) / cyc

	cycles := float64(m.cycles)
	delivered := float64(m.net.Stats().Delivered-m.delivered0) / cycles
	out["traffic.tick_ns_per_cycle"] = tick
	out["noc.step_ns_per_cycle"] = step
	out["noc.self_ns_per_cycle"] = nonNeg(step - sel - route)
	out["noc.host_ns_per_delivered"] = (tick + step) / delivered
	out["noc.alloc_bytes_per_cycle"] = float64(m.allocBytes) / cycles
	out["noc.active_routers_mean"] = float64(m.activeSum) / cycles
	out["noc.delivered_per_cycle"] = delivered
	out["noc.inflight_mean"] = float64(m.inflightSum) / cycles
	out["noc.latency_mean_cycles"] = m.net.Stats().Latency.Mean()
	out["noc.pending_injections_end"] = float64(m.net.PendingInjections())
	out["arb.select_ns_per_cycle"] = sel
	out["arb.select_calls_per_cycle"] = float64(m.pol.sel.calls-m.sel0.calls) / cycles
	if n := m.pol.sel.calls - m.sel0.calls; n > 0 {
		out["arb.cands_per_call"] = float64(m.pol.cands) / float64(n)
	}
	out["fault.route_ns_per_cycle"] = route
	if m.rt != nil {
		calls := float64(m.rt.route.calls-m.route0.calls) / cycles
		out["fault.route_calls_per_cycle"] = calls
		out["fault.route_calls_per_delivered"] = calls / delivered
	}
	if !m.cfg.Faulted {
		out["obs.attach_overhead_pct"], out["trace.attach_overhead_pct"] = attachOverheads(m.cfg, m.seed)
	}
}

// attachOverheads measures what looking costs: three copies of the network,
// one bare, one with obs.Attach and one with trace.Attach, stepped in turn
// for the same windows so they share the host's noise.
func attachOverheads(cfg meshConfig, seed int64) (obsPct, tracePct float64) {
	const windows = 60
	type variant struct {
		net   *noc.Network
		in    *traffic.Injector
		times []int64
	}
	var vs [3]variant
	for i := range vs {
		net, in, _ := cfg.buildNet(seed)
		net.SetPolicy(arb.NewGlobalAge())
		switch i {
		case 1:
			obs.Attach(net, obs.SuiteConfig{})
		case 2:
			trace.Attach(net, trace.Config{})
		}
		for c := 0; c < cfg.Warmup; c++ {
			in.Tick()
			net.Step()
		}
		vs[i] = variant{net: net, in: in, times: make([]int64, windows)}
	}
	for w := 0; w < windows; w++ {
		for i := range vs {
			t0 := now()
			for c := 0; c < cfg.Cycles; c++ {
				vs[i].in.Tick()
				vs[i].net.Step()
			}
			vs[i].times[w] = now() - t0
		}
	}
	base := fastest(vs[0].times)
	return (fastest(vs[1].times)/base - 1) * 100, (fastest(vs[2].times)/base - 1) * 100
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

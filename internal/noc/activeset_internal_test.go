package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// attachRouting is X-Y routing that declares a destination unreachable while
// its attach link is down — verdicts are a pure function of (message
// destination, live link state), so they may be cached per head, and fault
// schedules can create and repair unreachable heads mid-run.
type attachRouting struct{}

func (attachRouting) Name() string    { return "attach-xy" }
func (attachRouting) ShardSafe() bool { return true }
func (attachRouting) Route(r *Router, m *Message) PortID {
	dst := r.net.nodes[m.Dst]
	if dst.Router.linkDown[dst.Port] {
		return RouteUnreachable
	}
	return r.XYPort(m)
}

// fullScanOpt makes a network walk every router and node every cycle; the
// arbitration kernel is unchanged (see legacyOpt for the oracle).
func fullScanOpt(net *Network) { net.SetActiveStepping(false) }

// TestActiveSetInvariance pins the active-set contract: the mask kernel
// produces delivery traces and stats bit-identical to the legacy full-scan
// oracle, on mesh and torus, for an order-sensitive per-output policy and an
// order-sensitive whole-router matcher — on the full-scan walk and on the
// active-set walk.
func TestActiveSetInvariance(t *testing.T) {
	cfgs := map[string]Config{
		"mesh8x8":  {Width: 8, Height: 8, VCs: 3, BufferCap: 2},
		"torus8x8": {Width: 8, Height: 8, VCs: 3, BufferCap: 2, Torus: true},
	}
	policies := map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}}
	for cname, cfg := range cfgs {
		for pname, pol := range policies {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				base, baseLog := traceRun(t, pol, cfg, 600, nil, nil, legacyOpt)
				net, log := traceRun(t, pol, cfg, 600, nil, nil, fullScanOpt)
				requireIdentical(t, "full scan", base, baseLog, net, log)
				net, log = traceRun(t, pol, cfg, 600, nil, nil)
				requireIdentical(t, "active set", base, baseLog, net, log)
			})
		}
	}
}

// TestActiveSetInvarianceFaulted runs the mid-run link-kill + freeze schedule
// under built-in X-Y routing: the mask kernel must keep the faulty-mode rules
// (frozen-router skip, attach-link injection block, routes re-derived at each
// link transition) bit-identical to the legacy oracle, on both walks.
func TestActiveSetInvarianceFaulted(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	faults := func(net *Network, cycle int) {
		switch cycle {
		case 200:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, true)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, true)
			net.SetLinkDown(net.RouterAt(1, 6).ID(), PortCore, true)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), true)
		case 450:
			net.SetLinkDown(net.RouterAt(3, 3).ID(), PortEast, false)
			net.SetLinkDown(net.RouterAt(4, 3).ID(), PortWest, false)
			net.SetLinkDown(net.RouterAt(1, 6).ID(), PortCore, false)
			net.FreezeRouter(net.RouterAt(5, 5).ID(), false)
		}
	}
	for pname, pol := range map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}} {
		t.Run(pname, func(t *testing.T) {
			base, baseLog := traceRun(t, pol, cfg, 600, nil, faults, legacyOpt)
			if base.FaultStats().Requeued == 0 {
				t.Fatal("fault schedule requeued nothing; scenario is vacuous")
			}
			net, log := traceRun(t, pol, cfg, 600, nil, faults, fullScanOpt)
			requireIdentical(t, "full scan", base, baseLog, net, log)
			net, log = traceRun(t, pol, cfg, 600, nil, faults)
			requireIdentical(t, "active set", base, baseLog, net, log)
		})
	}
}

// TestActiveSetInvarianceUnreachable drives a run where a fault schedule makes
// buffered heads unreachable mid-flight (attach link killed, later repaired)
// under a routing with cacheable verdicts: routing each head once and evicting
// from that pass must find and evict exactly the same messages, in the same
// order, as the legacy oracle's unconditional per-cycle sweep — for a policy
// and for a matcher, on the full-scan walk and on the active set.
func TestActiveSetInvarianceUnreachable(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	faults := func(net *Network, cycle int) {
		// Node 10's attach port: in-flight traffic toward it becomes
		// unreachable at 150 and routable again at 400.
		r := net.Node(10).Router
		switch cycle {
		case 150:
			net.SetLinkDown(r.ID(), net.Node(10).Port, true)
		case 400:
			net.SetLinkDown(r.ID(), net.Node(10).Port, false)
		}
	}
	for pname, pol := range map[string]Policy{"policy": orderPolicy{}, "matcher": orderMatcher{}} {
		t.Run(pname, func(t *testing.T) {
			base, baseLog := traceRun(t, pol, cfg, 600, attachRouting{}, faults, legacyOpt)
			if base.FaultStats().Unreachable == 0 {
				t.Fatal("no unreachable evictions; eviction path not exercised")
			}
			net, log := traceRun(t, pol, cfg, 600, attachRouting{}, faults, fullScanOpt)
			requireIdentical(t, "full scan", base, baseLog, net, log)
			net, log = traceRun(t, pol, cfg, 600, attachRouting{}, faults)
			requireIdentical(t, "active set", base, baseLog, net, log)
			checkConservation(t, net, "active set")
		})
	}
}

// checkBitmaps recomputes the activity bitmaps brute-force from the buffer
// and queue state and diffs them against the incrementally maintained ones.
func checkBitmaps(t testing.TB, net *Network, when string) {
	t.Helper()
	count := 0
	for _, r := range net.routers {
		// Re-derive occ from the buffers, then the activity bit from occ.
		var occ uint64
		for p := PortID(0); p < MaxPorts; p++ {
			for vc, buf := range r.in[p] {
				if buf.Len() > 0 {
					occ |= 1 << uint(int(p)*net.cfg.VCs+vc)
				}
			}
		}
		if occ != r.occ {
			t.Fatalf("%s: router %d occ = %b, brute force %b", when, r.id, r.occ, occ)
		}
		got := net.actR[r.actWord]&r.actMask != 0
		if want := occ != 0; got != want {
			t.Fatalf("%s: router %d activity bit = %v, occ = %b", when, r.id, got, occ)
		}
		if occ != 0 {
			count++
		}
	}
	if count != net.actRCount {
		t.Fatalf("%s: actRCount = %d, brute force %d", when, net.actRCount, count)
	}
	for wi, word := range net.actR {
		pop := 0
		for _, r := range net.routers {
			if r.actWord == wi && r.occ != 0 {
				pop++
			}
		}
		if bits.OnesCount64(word) != pop {
			t.Fatalf("%s: actR word %d popcount = %d, brute force %d", when, wi, bits.OnesCount64(word), pop)
		}
	}
	for _, nd := range net.nodes {
		got := net.actN[nd.ID>>6]&(1<<(uint(nd.ID)&63)) != 0
		if want := nd.PendingInjections() > 0; got != want {
			t.Fatalf("%s: node %d activity bit = %v, pending = %d", when, nd.ID, got, nd.PendingInjections())
		}
	}
}

// TestActiveSetBitmapInvariants fuzzes a small faulted mesh — random
// injections, link kills and repairs, freezes, wholesale requeues — and
// recomputes every activity bitmap brute-force after each step. This is the
// safety net for the incremental maintenance in Buffer.push/pop/syncOcc,
// Node.Inject/dequeue and the fault transitions.
func TestActiveSetBitmapInvariants(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 2, BufferCap: 2})
	net.SetPolicy(orderPolicy{})
	net.SetRouting(attachRouting{})
	rng := rand.New(rand.NewSource(11))
	var id uint64
	downAttach := -1 // node whose attach link is currently down
	for cycle := 0; cycle < 800; cycle++ {
		for i, nd := range nodes {
			if rng.Float64() >= 0.4 {
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
			m.Class = Class(rng.Intn(2))
			m.SizeFlits = 1 + rng.Intn(2)
			nd.Inject(m)
		}
		switch {
		case cycle%97 == 13:
			if downAttach >= 0 {
				nd := net.Node(NodeID(downAttach))
				net.SetLinkDown(nd.Router.ID(), nd.Port, false)
			}
			downAttach = rng.Intn(len(nodes))
			nd := net.Node(NodeID(downAttach))
			net.SetLinkDown(nd.Router.ID(), nd.Port, true)
		case cycle%131 == 40:
			rid := rng.Intn(len(net.routers))
			net.FreezeRouter(rid, !net.routers[rid].frozen)
		case cycle%211 == 77:
			// Strand every message bound for a random destination.
			victim := NodeID(rng.Intn(len(nodes)))
			net.RequeueStranded(func(r *Router, p PortID, m *Message) bool {
				return m.Dst == victim
			})
		}
		net.Step()
		when := fmt.Sprintf("cycle %d", cycle)
		checkBitmaps(t, net, when)
		checkArbState(t, net, when)
	}
	// Repair and drain so the terminal state is checked empty.
	if downAttach >= 0 {
		nd := net.Node(NodeID(downAttach))
		net.SetLinkDown(nd.Router.ID(), nd.Port, false)
	}
	for _, r := range net.routers {
		if r.frozen {
			net.FreezeRouter(r.id, false)
		}
	}
	net.Drain(20000)
	checkBitmaps(t, net, "after drain")
	if net.actRCount != 0 {
		t.Fatalf("drained network has %d active routers", net.actRCount)
	}
}

// TestActiveSetToggleMidRun flips the engine between active-set and full-scan
// stepping every few hundred cycles of a seeded run and requires the combined
// trace to match the legacy oracle's — SetActiveStepping is documented as
// safe to toggle between cycles without a rebuild.
func TestActiveSetToggleMidRun(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, VCs: 3, BufferCap: 2}
	toggle := func(net *Network, cycle int) {
		if cycle%150 == 0 {
			net.SetActiveStepping(cycle%300 == 0)
		}
	}
	base, baseLog := traceRun(t, orderPolicy{}, cfg, 600, nil, nil, legacyOpt)
	net, log := traceRun(t, orderPolicy{}, cfg, 600, nil, toggle)
	requireIdentical(t, "toggled", base, baseLog, net, log)
}

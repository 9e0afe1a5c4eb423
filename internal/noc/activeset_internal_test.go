package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// attachRouting is X-Y routing that declares a destination unreachable while
// its attach link is down: verdicts are a pure function of (message
// destination, live link state), and fault schedules can create and repair
// unreachable heads mid-run.
type attachRouting struct{}

func (attachRouting) Name() string { return "attach-xy" }
func (attachRouting) Route(r *Router, m *Message) PortID {
	dc, port := m.DstRouter()
	if r.net.RouterAt(dc.X, dc.Y).linkDown[port] {
		return RouteUnreachable
	}
	return r.XYPort(m)
}

// checkActiveTrace replays a pinnedTraces row with the activity bitmaps,
// arbitration state and delivery store recomputed brute-force before every
// step, and the bitmaps after the drain. The literals were recorded where the active-set walk was proven equal
// to a full scan of every router, so the walk must still reach the same
// deliveries while never skipping a router or node with work.
func checkActiveTrace(t *testing.T, name string) {
	net := lookupTrace(t, name).check(t, func(net *Network, cycle int) {
		when := fmt.Sprintf("cycle %d", cycle)
		checkBitmaps(t, net, when)
		checkArbState(t, net, when)
		checkDeliveries(t, net, when)
	})
	checkBitmaps(t, net, "after drain")
}

// TestActiveSetInvariance holds the active-set walk to the healthy mesh and
// torus runs of an order-sensitive policy and matcher.
func TestActiveSetInvariance(t *testing.T) {
	for _, name := range []string{"mesh8x8/policy", "mesh8x8/matcher", "torus8x8/policy", "torus8x8/matcher"} {
		t.Run(name, func(t *testing.T) { checkActiveTrace(t, name) })
	}
}

// TestActiveSetInvarianceFaulted holds the walk to the mid-run link-kill
// schedule, node (1,6)'s attach link included: injection waits on a dead
// attach link and routes are re-derived at each link transition.
func TestActiveSetInvarianceFaulted(t *testing.T) {
	for _, pname := range []string{"policy", "matcher"} {
		t.Run(pname, func(t *testing.T) { checkActiveTrace(t, "faulted-core/"+pname) })
	}
}

// TestActiveSetInvarianceUnreachable holds the walk to a run whose fault
// schedule makes buffered heads unreachable mid-flight under attachRouting:
// routing each head once must evict exactly the pinned messages.
func TestActiveSetInvarianceUnreachable(t *testing.T) {
	for _, pname := range []string{"policy", "matcher"} {
		t.Run(pname, func(t *testing.T) { checkActiveTrace(t, "unreachable-attach/"+pname) })
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
			for vc := range r.in[p] {
				if r.in[p][vc].Len() > 0 {
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
// injections, link kills and repairs, wholesale requeues — and
// recomputes every activity bitmap brute-force after each step. This is the
// safety net for the incremental maintenance in Router.push/pop/filter,
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
			m.SizeFlits = int32(1 + rng.Intn(2))
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
		checkDeliveries(t, net, when)
	}
	// Repair and drain so the terminal state is checked empty.
	if downAttach >= 0 {
		nd := net.Node(NodeID(downAttach))
		net.SetLinkDown(nd.Router.ID(), nd.Port, false)
	}
	net.Drain(20000)
	checkBitmaps(t, net, "after drain")
	if net.actRCount != 0 {
		t.Fatalf("drained network has %d active routers", net.actRCount)
	}
}

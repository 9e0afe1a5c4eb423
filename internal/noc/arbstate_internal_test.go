package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// checkArbState recomputes every router's arbitration state by brute force
// from the queues and compares it with the incrementally maintained masks:
// occ and full bit for bit; no want bit on an empty or stale buffer; every
// non-stale head in exactly the want mask of its cached port, and that port
// equal to a fresh Route verdict under the current fault state (Route may
// write only the message, idempotently: the Routing contract); outs bit o set
// exactly when want[o] is non-zero. It also walks the lists Message.next
// threads (checkLists): every buffer's and every node's list, and the
// freelist.
func checkArbState(t testing.TB, net *Network, when string) {
	t.Helper()
	checkLists(t, net, when)
	for _, r := range net.routers {
		var occ, full, wantAny uint64
		for out := range r.want {
			if r.want[out]&wantAny != 0 {
				t.Fatalf("%s: router %d: a buffer requests two outputs: %b", when, r.id, r.want)
			}
			wantAny |= r.want[out]
			if got, want := r.outs>>out&1 != 0, r.want[out] != 0; got != want {
				t.Fatalf("%s: router %d outs = %06b, want = %b", when, r.id, r.outs, r.want)
			}
		}
		for p := PortID(0); p < MaxPorts; p++ {
			for vc := range r.in[p] {
				buf := &r.in[p][vc]
				bit := uint64(1) << uint(int(p)*net.cfg.VCs+vc)
				if buf.Len()+int(buf.reserved) >= net.cfg.BufferCap {
					full |= bit
				}
				if buf.Len() == 0 {
					continue
				}
				occ |= bit
				if r.stale&bit != 0 {
					continue
				}
				route := buf.head.route
				if route < 0 || route >= MaxPorts || r.want[route]&bit == 0 {
					t.Fatalf("%s: router %d head (%s,%d) cached port %d but want = %b", when, r.id, p, vc, route, r.want)
				}
				if fresh := r.Route(buf.Head()); fresh != PortID(route) {
					t.Fatalf("%s: router %d head %s cached port %s, fresh verdict %s", when, r.id, buf.Head(), PortID(route), fresh)
				}
			}
		}
		if occ != r.occ {
			t.Fatalf("%s: router %d occ = %b, brute force %b", when, r.id, r.occ, occ)
		}
		if full != r.full {
			t.Fatalf("%s: router %d full = %b, brute force %b", when, r.id, r.full, full)
		}
		if r.stale&^occ != 0 {
			t.Fatalf("%s: router %d stale = %b outside occ = %b", when, r.id, r.stale, occ)
		}
		if wantAny != occ&^r.stale {
			t.Fatalf("%s: router %d want = %b, routed heads %b", when, r.id, wantAny, occ&^r.stale)
		}
	}
}

// listPlace is where checkLists found a linked message: buffer (p, vc) of r,
// the injection queue of node, or the freelist (both nil).
type listPlace struct {
	r    *Router
	p    PortID
	vc   int
	node *Node
}

// checkLists walks the freelist, every input buffer's list and every node's
// injection queue from its head. It fails when a list's length is not its
// buffer's Len() or its node's PendingInjections(), when its last message is
// not its tail, when a message is reached twice (two lists, a list and the
// freelist, or a cycle), when the node queues do not add up to the network's
// PendingInjections(), or when a node's activity bit disagrees with whether
// its queue is empty.
func checkLists(t testing.TB, net *Network, when string) {
	t.Helper()
	where := map[*Message]listPlace{}
	visit := func(m *Message, at listPlace) {
		if prev, dup := where[m]; dup {
			t.Fatalf("%s: %s reached in %+v and again in %+v", when, m, prev, at)
		}
		where[m] = at
	}
	for m := net.free; m != nil; m = m.next {
		visit(m, listPlace{})
	}
	for _, r := range net.routers {
		for p := PortID(0); p < MaxPorts; p++ {
			for vc := range r.in[p] {
				buf := &r.in[p][vc]
				at := listPlace{r: r, p: p, vc: vc}
				var last *Message
				k := 0
				for m := buf.head; m != nil; m = m.next {
					visit(m, at)
					last = m
					k++
				}
				if k != buf.Len() || buf.tail != last {
					t.Fatalf("%s: router %d buffer (%s,%d) lists %d messages ending at %v, Len %d, tail %v",
						when, r.id, p, vc, k, last, buf.Len(), buf.tail)
				}
			}
		}
	}
	pending := 0
	for _, nd := range net.nodes {
		var last *Message
		k := 0
		for m := nd.qHead; m != nil; m = m.next {
			visit(m, listPlace{node: nd})
			last = m
			k++
		}
		if k != nd.PendingInjections() || nd.qTail != last {
			t.Fatalf("%s: %s queues %d messages ending at %v, PendingInjections %d, tail %v",
				when, nd, k, last, nd.PendingInjections(), nd.qTail)
		}
		if active := net.actN[nd.ID>>6]>>(uint(nd.ID)&63)&1 != 0; active != (k != 0) {
			t.Fatalf("%s: %s activity bit %v with %d queued", when, nd, active, k)
		}
		pending += k
	}
	if pending != net.PendingInjections() {
		t.Fatalf("%s: node queues hold %d messages, PendingInjections %d", when, pending, net.PendingInjections())
	}
}

// checkDeliveries recounts the delivery store from the wheel: each wheel
// slot's list ends at its tail and lists only taken output slots, none twice;
// every listed message links to nothing (Message.next) and every listed
// delivery crosses its output's link (into the peer router's
// opposite input buffer, or to the attached node) and lands in its slot's
// cycle, the cycle its output stops serializing; every taken slot is listed,
// and the lists hold pending deliveries in all.
func checkDeliveries(t testing.TB, net *Network, when string) {
	t.Helper()
	listed := make([]bool, len(net.dels))
	count := 0
	for s := range net.wheelHead {
		last := int32(-1)
		for i := net.wheelHead[s]; i >= 0; i = net.delNext[i] {
			r, out := net.routers[int(i)/MaxPorts], PortID(int(i)%MaxPorts)
			d := &net.dels[i]
			if listed[i] || d.msg == nil {
				t.Fatalf("%s: wheel slot %d lists output %s of %s again or free (msg %v)", when, s, out, r, d.msg)
			}
			listed[i] = true
			count++
			if d.msg.next != nil {
				t.Fatalf("%s: %s in flight on output %s of %s links to %s", when, d.msg, out, r, d.msg.next)
			}
			if next := r.peerRouter[out]; next != nil {
				if d.to != next || d.node != nil {
					t.Fatalf("%s: %s on output %s of %s lands off its link", when, d.msg, out, r)
				}
			} else if d.to != nil || d.node != r.peerNode[out] {
				t.Fatalf("%s: %s ejects through output %s of %s to %v", when, d.msg, out, r, d.node)
			}
			ahead := r.outBusyUntil[out] - net.cycle
			if ahead <= 0 || ahead >= wheelLen || (net.slot+int(ahead))%wheelLen != s {
				t.Fatalf("%s: %s in wheel slot %d (now %d) on an output busy until cycle %d",
					when, d.msg, s, net.slot, r.outBusyUntil[out])
			}
			last = i
		}
		if net.wheelTail[s] != last {
			t.Fatalf("%s: wheel slot %d tail = %d, list ends at %d", when, s, net.wheelTail[s], last)
		}
	}
	for i := range net.dels {
		if net.dels[i].msg != nil && !listed[i] {
			t.Fatalf("%s: output slot %d holds %s on no wheel list", when, i, net.dels[i].msg)
		}
	}
	if count != net.pending {
		t.Fatalf("%s: the wheel lists %d deliveries, pending = %d", when, count, net.pending)
	}
}

// checkConservation asserts Injected == Delivered + Unreachable + InFlight.
func checkConservation(t testing.TB, net *Network, when string) {
	t.Helper()
	s, fs := net.Stats(), net.FaultStats()
	if s.Injected != s.Delivered+fs.Unreachable+net.InFlight() {
		t.Fatalf("%s: conservation broken: injected=%d delivered=%d unreachable=%d inflight=%d",
			when, s.Injected, s.Delivered, fs.Unreachable, net.InFlight())
	}
}

// injectRandom queues one message per node with probability rate, uniformly
// addressed, with a random class and a size of 1 or 1+big flits.
func injectRandom(net *Network, nodes []*Node, rng *rand.Rand, rate float64, id *uint64) {
	for i, nd := range nodes {
		if rng.Float64() >= rate {
			continue
		}
		d := rng.Intn(len(nodes) - 1)
		if d >= i {
			d++
		}
		*id++
		m := net.AllocMessage()
		m.ID = *id
		m.Dst = nodes[d].ID
		m.Class = Class(rng.Intn(net.cfg.VCs))
		m.SizeFlits = int32(1 + 4*rng.Intn(2))
		nd.Inject(m)
	}
}

// TestArbStateNeverStale steps seeded runs over the configuration space the
// arbitration state has to survive and recomputes it by brute force after
// every cycle: topology, buffer depth, VC count (up to MaxVCs, the widest
// mask), policy and matcher, every routing kind, and a fault schedule that
// kills and restores links mid-run (requeueLink overfills a buffer past its
// capacity), strands messages and swaps the routing between cycles. Routing and policy rotate over the (topology, depth, VCs) grid
// instead of multiplying it: every value of every dimension meets every value
// of every other.
func TestArbStateNeverStale(t *testing.T) {
	routings := []struct {
		name string
		mk   func(*Network) (Routing, func())
	}{
		{"builtin", func(*Network) (Routing, func()) { return nil, nil }},
		{"xy", func(*Network) (Routing, func()) { return XYRouting{}, nil }},
		{"attach", func(*Network) (Routing, func()) { return attachRouting{}, nil }},
		{"cut", func(*Network) (Routing, func()) { return cutRouting{cut: map[NodeID]bool{3: true}}, nil }},
	}
	policies := []struct {
		name string
		pol  Policy
	}{{"policy", orderPolicy{}}, {"matcher", orderMatcher{}}}
	row := 0 // index of the (topology, depth) pair
	for _, torus := range []bool{false, true} {
		for _, bufCap := range []int{1, 4} {
			for vi, vcs := range []int{1, 3, MaxVCs} {
				for k, p := range policies {
					// A row and a column of the grid each see all four
					// routings, under the policy and under the matcher.
					rt := routings[(vi+row+2*k)%4]
					name := fmt.Sprintf("torus=%v/cap%d/vcs%d/%s/%s", torus, bufCap, vcs, p.name, rt.name)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Width: 4, Height: 4, VCs: vcs, BufferCap: bufCap, Torus: torus}
						RunArbStateSchedule(t, cfg, p.pol, rt.mk, 7, 400)
					})
				}
			}
			row++
		}
	}
}

// RunArbStateSchedule is the seeded run behind TestArbStateNeverStale, its
// counterpart over internal/fault's routings and the fuzz target (both in
// package noc_test, hence exported): random traffic plus a fault schedule
// drawn from seed, with checkArbState, the delivery store, the activity
// bitmaps and conservation asserted after every cycle. mkRouting returns the routing to install (nil
// for built-in X-Y) and an optional hook to run after every link transition,
// as fault.Injector does for table rebuilds. It returns the delivered count.
func RunArbStateSchedule(t testing.TB, cfg Config, pol Policy, mkRouting func(*Network) (Routing, func()), seed int64, cycles int) int64 {
	t.Helper()
	net, nodes := BuildMeshCores(cfg)
	net.SetPolicy(pol)
	base, rebuild := mkRouting(net)
	if base != nil {
		net.SetRouting(base)
	}
	if rebuild == nil {
		rebuild = func() {}
	}
	rng := rand.New(rand.NewSource(seed))
	var id uint64
	type link struct {
		rid int
		p   PortID
	}
	var down []link
	for cycle := 0; cycle < cycles; cycle++ {
		injectRandom(net, nodes, rng, 0.35, &id)
		switch rng.Intn(12) {
		case 0: // kill a random connected link, requeueing what is on it
			r := net.routers[rng.Intn(len(net.routers))]
			p := PortID(rng.Intn(MaxPorts))
			if r.HasPort(p) && !r.linkDown[p] && len(down) < 4 {
				net.SetLinkDown(r.id, p, true)
				down = append(down, link{r.id, p})
				rebuild()
			}
		case 1: // restore the oldest dead link
			if len(down) > 0 {
				net.SetLinkDown(down[0].rid, down[0].p, false)
				down = down[1:]
				rebuild()
			}
		case 2: // no event; the draw keeps every committed seed's schedule
			rng.Intn(len(net.routers))
		case 3:
			victim := NodeID(rng.Intn(len(nodes)))
			net.RequeueStranded(func(_ *Router, _ PortID, m *Message) bool { return m.Dst == victim })
		case 4: // swap the routing: to X-Y, to nothing, back to the base
			switch rng.Intn(3) {
			case 0:
				net.SetRouting(XYRouting{})
			case 1:
				net.SetRouting(nil)
			default:
				net.SetRouting(base)
			}
		case 5: // no event; the draw keeps every committed seed's schedule
			rng.Intn(2)
		}
		net.Step()
		when := fmt.Sprintf("seed %d cycle %d", seed, cycle)
		checkArbState(t, net, when)
		checkDeliveries(t, net, when)
		checkBitmaps(t, net, when)
		checkConservation(t, net, when)
	}
	return net.Stats().Delivered
}

// countRouting is X-Y routing that counts its Route calls.
type countRouting struct{ calls *int64 }

func (countRouting) Name() string { return "count-xy" }
func (c countRouting) Route(r *Router, m *Message) PortID {
	*c.calls++
	return r.XYPort(m)
}

// grantCounter counts grants through the engine's observer hook.
type grantCounter struct{ grants int64 }

func (*grantCounter) ObserveInject(int64, *Node, *Message)             {}
func (g *grantCounter) ObserveGrant(int64, *Router, PortID, Candidate) { g.grants++ }
func (*grantCounter) ObserveDeliver(int64, *Node, *Message)            {}

// TestRouteOncePerHead pins the Route-call budget on a seeded mesh with a link
// killed and restored mid-run: a message is routed once when it reaches a
// buffer head, and once more per link transition if it is a routed head then —
// never once per cycle. Every head that is routed is eventually granted (the
// run drains and X-Y evicts nothing), so calls == grants + heads re-routed at
// the two transitions.
func TestRouteOncePerHead(t *testing.T) {
	for _, pol := range []Policy{orderPolicy{}, orderMatcher{}} {
		net, nodes := BuildMeshCores(Config{Width: 6, Height: 6, VCs: 3, BufferCap: 2})
		net.SetPolicy(pol)
		var calls int64
		net.SetRouting(countRouting{&calls})
		var gc grantCounter
		net.AddObserver(&gc)
		routedHeads := func() (n int64) {
			for _, r := range net.routers {
				n += int64(bits.OnesCount64(r.occ &^ r.stale))
			}
			return n
		}
		rng := rand.New(rand.NewSource(5))
		var id uint64
		var rerouted int64
		for cycle := 0; cycle < 600; cycle++ {
			switch cycle {
			case 200, 400:
				// One transition: the heads are counted once, the first
				// SetLinkDown drops every cached route.
				rerouted += routedHeads()
				for x := 1; x < 5; x++ {
					net.SetLinkDown(net.RouterAt(x, 2).ID(), PortEast, cycle == 200)
				}
			}
			injectRandom(net, nodes, rng, 0.3, &id)
			net.Step()
		}
		if !net.Drain(20000) {
			t.Fatal("network did not drain")
		}
		if rerouted == 0 || net.FaultStats().Requeued == 0 {
			t.Fatalf("vacuous: %d heads re-routed, %d requeued", rerouted, net.FaultStats().Requeued)
		}
		if calls != gc.grants+rerouted {
			t.Fatalf("%s: %d Route calls for %d grants + %d re-routed heads (%d cycles)",
				pol.Name(), calls, gc.grants, rerouted, net.Cycle())
		}
	}
}

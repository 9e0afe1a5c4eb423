package noc

import "testing"

// stubRouting routes via fn; used to exercise engine fault hooks without
// importing internal/fault (which would be an import cycle from this package).
type stubRouting struct {
	fn func(r *Router, m *Message) PortID
}

func (stubRouting) Name() string                         { return "stub" }
func (s stubRouting) Route(r *Router, m *Message) PortID { return s.fn(r, m) }

func TestLinkDownBlocksGrants(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	net.SetLinkDown(0, PortEast, true)
	if net.RouterAt(0, 0).LinkUp(PortEast) {
		t.Fatal("link reported up after SetLinkDown")
	}
	if got := net.FaultStats().LinksDown; got != 1 {
		t.Fatalf("LinksDown = %d, want 1", got)
	}
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	for range 50 {
		net.Step()
	}
	if net.Stats().Delivered != 0 {
		t.Fatal("message crossed a dead link")
	}
	if net.RouterAt(0, 0).Buffer(PortCore, 0).Len() != 1 {
		t.Fatal("message left its buffer despite the dead output link")
	}
	if got := net.FaultStats().DowntimeCycles; got != 50 {
		t.Fatalf("DowntimeCycles = %d, want 50", got)
	}
	// Restoring the link lets the message through.
	net.SetLinkDown(0, PortEast, false)
	if !net.Drain(100) || net.Stats().Delivered != 1 {
		t.Fatalf("after restore: delivered %d, want 1", net.Stats().Delivered)
	}
}

func TestLinkDownRequeuesInFlight(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 5})
	// One step: the message is injected, granted, and starts serializing
	// across the east link (5 flits, so it lands 5 cycles later).
	net.Step()
	r0 := net.RouterAt(0, 0)
	if r0.Buffer(PortCore, 0).Len() != 0 || net.Stats().Delivered != 0 {
		t.Fatal("message is not in flight after one step")
	}
	requeued := net.SetLinkDown(0, PortEast, true)
	if requeued != 1 {
		t.Fatalf("SetLinkDown requeued %d messages, want 1", requeued)
	}
	if got := net.FaultStats().Requeued; got != 1 {
		t.Fatalf("Requeued stat = %d, want 1", got)
	}
	if r0.Buffer(PortEast, 0).Len() != 1 {
		t.Fatal("in-flight message was not requeued at the upstream router")
	}
	// The message must not have been lost or double-counted: restore the
	// link, drain, and see exactly one delivery with a single counted hop.
	net.SetLinkDown(0, PortEast, false)
	var hops int
	cores[1].Sink = func(_ int64, m *Message) { hops = int(m.HopCount) }
	if !net.Drain(100) {
		t.Fatal("network did not drain after link restore")
	}
	if net.Stats().Delivered != 1 {
		t.Fatalf("delivered %d, want exactly 1", net.Stats().Delivered)
	}
	if hops != 1 {
		t.Fatalf("delivered with HopCount=%d, want 1 (grant-time hop must be undone on requeue)", hops)
	}
}

// evictionObserver records the unreachable evictions of its FaultObserver
// stream.
type evictionObserver struct {
	evictions int
	router    int
	dst       NodeID
}

func (*evictionObserver) ObserveInject(int64, *Node, *Message)            {}
func (*evictionObserver) ObserveGrant(int64, *Router, PortID, Candidate)  {}
func (*evictionObserver) ObserveDeliver(int64, *Node, *Message)           {}
func (*evictionObserver) ObserveRequeue(int64, *Router, PortID, *Message) {}
func (o *evictionObserver) ObserveUnreachable(_ int64, r *Router, m *Message) {
	o.evictions++
	o.router, o.dst = r.ID(), m.Dst
}

func TestUnreachableEviction(t *testing.T) {
	net, cores := buildMesh(t, 2, 2, 1)
	net.SetPolicy(firstPolicy{})
	net.SetRouting(stubRouting{fn: func(r *Router, m *Message) PortID {
		return RouteUnreachable
	}})
	ob := &evictionObserver{}
	net.AddObserver(ob)
	cores[0].Inject(&Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	for range 3 {
		net.Step()
	}
	if ob.evictions != 1 {
		t.Fatalf("ObserveUnreachable ran %d times, want 1", ob.evictions)
	}
	if ob.router != 0 || ob.dst != cores[3].ID {
		t.Fatalf("evicted at router %d for dst %d, want router 0 dst %d", ob.router, ob.dst, cores[3].ID)
	}
	fs := net.FaultStats()
	if fs.Unreachable != 1 {
		t.Fatalf("Unreachable stat = %d, want 1", fs.Unreachable)
	}
	// Accounting identity: every injected message is delivered, evicted as
	// unreachable, or still in flight — and here nothing is in flight.
	if net.InFlight() != 0 {
		t.Fatalf("InFlight = %d after eviction, want 0", net.InFlight())
	}
	if !net.Quiescent() {
		t.Fatal("network not quiescent after eviction")
	}
	if s := net.Stats(); s.Injected != s.Delivered+fs.Unreachable {
		t.Fatalf("accounting broken: injected=%d delivered=%d unreachable=%d",
			s.Injected, s.Delivered, fs.Unreachable)
	}
}

// TestRequeueStranded pins the stranded-message rescue path: messages pulled
// out of an input buffer and off the delivery wheel go back to their source
// node's injection queue with the conservation identity
// Injected == Delivered + Unreachable + InFlight intact throughout.
func TestRequeueStranded(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	// A 5-flit message that will be mid-link after one step, and a 1-flit
	// message still waiting in router 0's core input buffer behind it.
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 5})
	cores[0].Inject(&Message{ID: 2, Dst: cores[1].ID, SizeFlits: 1})
	net.Step()
	net.Step()
	if got := net.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d before rescue, want 2", got)
	}
	normalized := 0
	requeued := net.RequeueStranded(func(r *Router, p PortID, m *Message) bool {
		if m.ID == 2 {
			m.RouteBits = 7 // kept messages may be normalized in place
			normalized++
			return false
		}
		return true
	})
	if requeued != 1 {
		t.Fatalf("RequeueStranded returned %d, want 1", requeued)
	}
	if got := net.FaultStats().Requeued; got != 1 {
		t.Fatalf("Requeued stat = %d, want 1", got)
	}
	if normalized != 1 {
		t.Fatalf("strand saw the kept message %d times, want 1", normalized)
	}
	if got := cores[0].qLen; got != 1 {
		t.Fatalf("node 0 has %d pending after rescue, want 1", got)
	}
	if s := net.Stats(); s.Injected != s.Delivered+net.FaultStats().Unreachable+net.InFlight() {
		t.Fatalf("conservation broken after rescue: injected=%d delivered=%d inflight=%d",
			s.Injected, s.Delivered, net.InFlight())
	}
	var hops []int
	cores[1].Sink = func(_ int64, m *Message) { hops = append(hops, int(m.HopCount)) }
	if !net.Drain(100) {
		t.Fatal("network did not drain after rescue")
	}
	if net.Stats().Delivered != 2 {
		t.Fatalf("delivered %d, want exactly 2 (no loss, no duplication)", net.Stats().Delivered)
	}
	for _, h := range hops {
		t.Logf("delivered with %d hops", h)
		if h != 1 {
			t.Fatalf("HopCount=%d, want 1 (grant-time hop must be undone on rescue)", h)
		}
	}
	if s := net.Stats(); s.Injected != s.Delivered {
		t.Fatalf("conservation broken after drain: injected=%d delivered=%d", s.Injected, s.Delivered)
	}
}

func TestAttachPortDownBlocksInjection(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	net.SetLinkDown(0, PortCore, true)
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	for range 20 {
		net.Step()
	}
	if cores[0].qLen != 1 || net.Stats().Injected != 0 {
		t.Fatal("injection proceeded through a dead attach port")
	}
	net.SetLinkDown(0, PortCore, false)
	if !net.Drain(100) || net.Stats().Delivered != 1 {
		t.Fatalf("after restore: delivered %d, want 1", net.Stats().Delivered)
	}
}

// TestHealthyFaultHooksAreInert pins the zero-cost-off contract at the engine
// level: enabling the fault machinery without any actual fault (install and
// remove, or a down-up bounce before traffic) leaves behavior identical.
func TestHealthyFaultHooksAreInert(t *testing.T) {
	run := func(prep func(*Network)) (int64, float64) {
		net, cores := buildMesh(t, 3, 3, 2)
		net.SetPolicy(firstPolicy{})
		prep(net)
		id := uint64(0)
		for i := 0; i < 40; i++ {
			src := cores[i%len(cores)]
			dst := cores[(i*3+1)%len(cores)]
			if src == dst {
				continue
			}
			id++
			src.Inject(&Message{ID: id, Dst: dst.ID, Class: Class(i % 2), SizeFlits: int32(1 + i%4)})
			net.Step()
		}
		net.Drain(10000)
		return net.Stats().Delivered, net.Stats().Latency.Mean()
	}
	baseD, baseL := run(func(*Network) {})
	bounceD, bounceL := run(func(n *Network) {
		n.SetLinkDown(0, PortEast, true)  // marks the network faulty...
		n.SetLinkDown(0, PortEast, false) // ...but leaves every link healthy
	})
	if baseD != bounceD || baseL != bounceL {
		t.Fatalf("healthy faulty-flagged run diverged: delivered %d/%d, latency %v/%v",
			baseD, bounceD, baseL, bounceL)
	}
}

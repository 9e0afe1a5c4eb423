package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// firstPolicy always grants the first candidate (deterministic).
type firstPolicy struct{}

func (firstPolicy) Name() string                            { return "first" }
func (firstPolicy) Select(_ *ArbContext, _ []Candidate) int { return 0 }

// panicPolicy fails the test if Select is ever invoked.
type panicPolicy struct{ t *testing.T }

func (panicPolicy) Name() string { return "panic" }
func (p panicPolicy) Select(_ *ArbContext, cands []Candidate) int {
	p.t.Fatalf("Select invoked with %d candidates; single requesters must bypass the policy", len(cands))
	return 0
}

func buildMesh(t *testing.T, w, h, vcs int) (*Network, []*Node) {
	t.Helper()
	return BuildMeshCores(Config{Width: w, Height: h, VCs: vcs})
}

func TestMeshWiring(t *testing.T) {
	net, cores := buildMesh(t, 4, 3, 2)
	if len(net.Routers()) != 12 || len(cores) != 12 {
		t.Fatalf("got %d routers, %d cores", len(net.Routers()), len(cores))
	}
	r := net.RouterAt(1, 1) // interior: core + 4 directions
	if r.nPorts != 5 {
		t.Fatalf("interior router has %d ports, want 5", r.nPorts)
	}
	corner := net.RouterAt(0, 0)
	if corner.nPorts != 3 { // core, south, east
		t.Fatalf("corner router has %d ports, want 3", corner.nPorts)
	}
	if corner.Neighbor(PortNorth) != nil || corner.Neighbor(PortWest) != nil {
		t.Fatal("corner router has neighbors off the mesh edge")
	}
	if n := net.RouterAt(1, 0).Neighbor(PortWest); n != corner {
		t.Fatalf("west neighbor of (1,0) = %v, want (0,0)", n)
	}
	// Links are symmetric.
	for _, r := range net.Routers() {
		for p := PortNorth; p <= PortEast; p++ {
			if nb := r.Neighbor(p); nb != nil && nb.Neighbor(p.Opposite()) != r {
				t.Fatalf("asymmetric link at %v port %v", r, p)
			}
		}
	}
}

func TestOppositePorts(t *testing.T) {
	pairs := map[PortID]PortID{
		PortNorth: PortSouth, PortSouth: PortNorth,
		PortWest: PortEast, PortEast: PortWest,
	}
	for p, want := range pairs {
		if got := p.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", p, got, want)
		}
	}
	for _, p := range []PortID{PortCore, PortMem} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Opposite() did not panic", p)
				}
			}()
			p.Opposite()
		}()
	}
}

func TestManhattan(t *testing.T) {
	if d := (Coord{0, 0}).Manhattan(Coord{3, 4}); d != 7 {
		t.Fatalf("Manhattan = %d, want 7", d)
	}
	if d := (Coord{2, 5}).Manhattan(Coord{2, 5}); d != 0 {
		t.Fatalf("Manhattan of identical coords = %d, want 0", d)
	}
}

func TestAttachNodeRejectsLinkedPort(t *testing.T) {
	net, _ := buildMesh(t, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a node to a linked direction port did not panic")
		}
	}()
	net.AttachNode(0, 0, PortEast, DstCore, "bad") // east is linked to (1,0)
}

func TestAttachNodeOnFreeEdgePort(t *testing.T) {
	net, _ := buildMesh(t, 2, 2, 1)
	n := net.AttachNode(0, 0, PortNorth, DstCache, "edge") // free edge port
	if n.Router != net.RouterAt(0, 0) || n.Port != PortNorth {
		t.Fatalf("node attached at wrong place: %v", n)
	}
	if net.RouterAt(0, 0).peerNode[PortNorth] != n {
		t.Fatal("router does not know about the attached node")
	}
}

// TestSingleMessageLatency checks the exact timing model: a message of L
// flits crossing h router-to-router hops is delivered (h+1)*L cycles after
// entering its source router (each hop plus the final ejection serializes L
// flits).
func TestSingleMessageLatency(t *testing.T) {
	for _, tc := range []struct {
		fromX, fromY, toX, toY int
		flits                  int
	}{
		{0, 0, 3, 0, 1},
		{0, 0, 3, 0, 5},
		{0, 0, 0, 3, 1},
		{0, 0, 3, 3, 5},
		{2, 2, 2, 2, 1}, // self-send: ejection only
	} {
		net, cores := buildMesh(t, 4, 4, 1)
		net.SetPolicy(firstPolicy{})
		src := cores[tc.fromY*4+tc.fromX]
		dst := cores[tc.toY*4+tc.toX]

		var deliveredAt int64 = -1
		var got *Message
		dst.Sink = func(now int64, m *Message) { deliveredAt, got = now, m }

		src.Inject(&Message{ID: 1, Dst: dst.ID, SizeFlits: int32(tc.flits)})
		if !net.Drain(1000) {
			t.Fatalf("%+v: network did not drain", tc)
		}
		if got == nil {
			t.Fatalf("%+v: message not delivered", tc)
		}
		hops := abs(tc.fromX-tc.toX) + abs(tc.fromY-tc.toY)
		wantLatency := int64((hops + 1) * tc.flits)
		if lat := deliveredAt - got.InjectCycle; lat != wantLatency {
			t.Errorf("%+v: net latency %d, want %d", tc, lat, wantLatency)
		}
		if int(got.HopCount) != hops {
			t.Errorf("%+v: hop count %d, want %d", tc, got.HopCount, hops)
		}
		if int(got.Distance) != hops {
			t.Errorf("%+v: distance %d, want %d", tc, got.Distance, hops)
		}
	}
}

// TestXYRouting verifies dimension order: a message's path corrects X before
// Y. We observe the path via per-router hop recording using a wrapper policy.
func TestXYRouting(t *testing.T) {
	net, cores := buildMesh(t, 5, 5, 1)
	net.SetPolicy(firstPolicy{})
	src, dst := cores[0], cores[4*5+3] // (0,0) -> (3,4)
	src.Inject(&Message{ID: 9, Dst: dst.ID, SizeFlits: 1})
	delivered := false
	dst.Sink = func(_ int64, m *Message) { delivered = true }
	if !net.Drain(200) || !delivered {
		t.Fatal("message not delivered")
	}
	// With X-first routing the message never occupies a N/S input buffer
	// before reaching column 3. Indirect check: route() from source picks
	// east, and from (3,0) picks south. Inject resolves the probe's
	// destination; the network is not stepped again.
	m := &Message{Dst: dst.ID, SizeFlits: 1}
	src.Inject(m)
	if out := net.RouterAt(0, 0).Route(m); out != PortEast {
		t.Fatalf("route from (0,0) = %v, want east", out)
	}
	if out := net.RouterAt(3, 0).Route(m); out != PortSouth {
		t.Fatalf("route from (3,0) = %v, want south", out)
	}
	if out := net.RouterAt(3, 4).Route(m); out != PortCore {
		t.Fatalf("route at destination = %v, want core ejection", out)
	}
}

// TestInjectRejectsUnknownDestination pins where a Dst that names no attached
// node is caught: at Node.Inject, which resolves the destination, with the
// message, its source and the unknown node named — not as an index panic
// inside a later Step.
func TestInjectRejectsUnknownDestination(t *testing.T) {
	net, cores := buildMesh(t, 2, 2, 1)
	for _, dst := range []NodeID{-1, NodeID(len(cores))} {
		t.Run(fmt.Sprint(dst), func(t *testing.T) {
			defer func() {
				got := fmt.Sprint(recover())
				for _, want := range []string{"msg#7 ", cores[1].String(), fmt.Sprintf("unknown destination node %d", dst)} {
					if !strings.Contains(got, want) {
						t.Fatalf("panic %q does not name %q", got, want)
					}
				}
			}()
			cores[1].Inject(&Message{ID: 7, Dst: dst, SizeFlits: 1})
		})
	}
	if net.PendingInjections() != 0 {
		t.Fatalf("%d rejected messages were queued", net.PendingInjections())
	}
}

// TestConservation floods the network with random traffic and verifies every
// injected message is delivered exactly once to its addressee.
func TestConservation(t *testing.T) {
	net, cores := buildMesh(t, 4, 4, 3)
	net.SetPolicy(firstPolicy{})
	rng := rand.New(rand.NewSource(42))

	want := make(map[uint64]NodeID)
	gotCount := make(map[uint64]int)
	for _, c := range cores {
		c := c
		c.Sink = func(_ int64, m *Message) {
			if m.Dst != c.ID {
				t.Errorf("message %d for node %d delivered to node %d", m.ID, m.Dst, c.ID)
			}
			gotCount[m.ID]++
		}
	}
	var id uint64
	for i := 0; i < 500; i++ {
		src := cores[rng.Intn(len(cores))]
		dst := cores[rng.Intn(len(cores))]
		id++
		size := 1
		if rng.Intn(3) == 0 {
			size = 5
		}
		src.Inject(&Message{
			ID: id, Dst: dst.ID, Class: Class(rng.Intn(3)), SizeFlits: int32(size),
		})
		net.Step()
	}
	if !net.Drain(100000) {
		t.Fatal("network did not drain")
	}
	if int(net.Stats().Delivered) != int(id) {
		t.Fatalf("delivered %d of %d", net.Stats().Delivered, id)
	}
	for mid := uint64(1); mid <= id; mid++ {
		if gotCount[mid] != 1 {
			t.Fatalf("message %d delivered %d times", mid, gotCount[mid])
		}
	}
	_ = want
}

// TestBufferCapacityInvariant checks that no input buffer ever exceeds its
// capacity including in-flight reservations.
func TestBufferCapacityInvariant(t *testing.T) {
	net, cores := buildMesh(t, 4, 4, 2)
	net.SetPolicy(firstPolicy{})
	rng := rand.New(rand.NewSource(7))
	cap := net.Config().BufferCap
	net.OnCycle = func(n *Network) {
		for _, r := range n.Routers() {
			for p := PortID(0); p < MaxPorts; p++ {
				for vc := 0; vc < n.Config().VCs; vc++ {
					b := r.Buffer(p, vc)
					if b == nil {
						continue
					}
					if b.Len()+int(b.reserved) > cap {
						t.Fatalf("buffer %v.%v.%d over capacity: %d queued + %d reserved > %d",
							r, p, vc, b.Len(), b.reserved, cap)
					}
					if b.reserved < 0 {
						t.Fatalf("negative reservation at %v.%v.%d", r, p, vc)
					}
				}
			}
		}
	}
	var id uint64
	for i := 0; i < 2000; i++ {
		if rng.Float64() < 0.8 {
			src := cores[rng.Intn(len(cores))]
			dst := cores[rng.Intn(len(cores))]
			id++
			src.Inject(&Message{ID: id, Dst: dst.ID, Class: Class(rng.Intn(2)), SizeFlits: 5})
		}
		net.Step()
	}
	net.Drain(50000)
}

// TestOutputSerialization: two 5-flit messages from different sources to the
// same destination must serialize on the shared final link.
func TestOutputSerialization(t *testing.T) {
	net, cores := buildMesh(t, 3, 1, 1)
	net.SetPolicy(firstPolicy{})
	dst := cores[1] // center
	var arrivals []int64
	dst.Sink = func(now int64, _ *Message) { arrivals = append(arrivals, now) }
	cores[0].Inject(&Message{ID: 1, Dst: dst.ID, SizeFlits: 5})
	cores[2].Inject(&Message{ID: 2, Dst: dst.ID, SizeFlits: 5})
	if !net.Drain(100) {
		t.Fatal("did not drain")
	}
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap < 5 {
		t.Fatalf("ejection link did not serialize: gap %d < 5 flits", gap)
	}
}

// TestSingleRequesterBypassesPolicy drives a lone traffic flow and installs a
// policy that fails the test when consulted.
func TestSingleRequesterBypassesPolicy(t *testing.T) {
	net, cores := buildMesh(t, 3, 1, 1)
	net.SetPolicy(panicPolicy{t})
	for i := 0; i < 5; i++ {
		cores[0].Inject(&Message{ID: uint64(i + 1), Dst: cores[2].ID, SizeFlits: 1})
	}
	if !net.Drain(100) {
		t.Fatal("did not drain")
	}
	if net.Stats().Delivered != 5 {
		t.Fatalf("delivered %d of 5", net.Stats().Delivered)
	}
}

// TestInputPortSingleGrant: one input port may forward at most one message
// per cycle even when its buffers request distinct free outputs.
func TestInputPortSingleGrant(t *testing.T) {
	// Line of 3 routers; center has West input carrying two VCs with traffic
	// to different outputs (east-through and local ejection).
	net, cores := buildMesh(t, 3, 1, 2)
	net.SetPolicy(firstPolicy{})
	// Two messages from west core: one to center core (ejects), one to east.
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, Class: 0, SizeFlits: 1})
	cores[0].Inject(&Message{ID: 2, Dst: cores[2].ID, Class: 1, SizeFlits: 1})
	// Let them advance into the center router's west input buffers.
	deliveries := map[uint64]int64{}
	for _, c := range cores {
		c := c
		c.Sink = func(now int64, m *Message) { deliveries[m.ID] = now }
	}
	if !net.Drain(100) {
		t.Fatal("did not drain")
	}
	if len(deliveries) != 2 {
		t.Fatalf("delivered %d of 2", len(deliveries))
	}
	// Both went through the center router's west input port; their final-hop
	// grants cannot have happened in the same cycle. Ejection at center is
	// 1 cycle after its grant; arrival at east router likewise. The two
	// messages left the source in consecutive cycles already (source node
	// injects one per cycle), so just assert distinct delivery cycles.
	if deliveries[1] == deliveries[2] {
		t.Fatalf("messages delivered at the same cycle %d; input port double-granted?", deliveries[1])
	}
}

// TestQuickRoutingDelivers is a property test: on random mesh sizes, any
// (src, dst, flits) message is delivered with hop count equal to Manhattan
// distance in an otherwise empty network.
func TestQuickRoutingDelivers(t *testing.T) {
	f := func(w8, h8, sx8, sy8, dx8, dy8 uint8, long bool) bool {
		w := int(w8%6) + 2 // 2..7
		h := int(h8%6) + 2
		sx, sy := int(sx8)%w, int(sy8)%h
		dx, dy := int(dx8)%w, int(dy8)%h
		net, cores := BuildMeshCores(Config{Width: w, Height: h, VCs: 1})
		net.SetPolicy(firstPolicy{})
		src := cores[sy*w+sx]
		dst := cores[dy*w+dx]
		flits := 1
		if long {
			flits = 5
		}
		ok := false
		dst.Sink = func(_ int64, m *Message) {
			ok = int(m.HopCount) == abs(sx-dx)+abs(sy-dy)
		}
		src.Inject(&Message{ID: 1, Dst: dst.ID, SizeFlits: int32(flits)})
		return net.Drain(int64(10*(w+h)*flits+50)) && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConservationUnderLoad is a property test: any random batch of
// messages is fully delivered once the network drains.
func TestQuickConservationUnderLoad(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%200 + 1
		net, cores := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 2, BufferCap: 2})
		net.SetPolicy(firstPolicy{})
		for i := 0; i < n; i++ {
			src := cores[rng.Intn(len(cores))]
			dst := cores[rng.Intn(len(cores))]
			src.Inject(&Message{
				ID: uint64(i + 1), Dst: dst.ID,
				Class: Class(rng.Intn(2)), SizeFlits: int32(1 + rng.Intn(5)),
			})
		}
		return net.Drain(100000) && net.Stats().Delivered == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescentAndInFlight(t *testing.T) {
	net, cores := buildMesh(t, 2, 2, 1)
	net.SetPolicy(firstPolicy{})
	if !net.Quiescent() {
		t.Fatal("empty network not quiescent")
	}
	cores[0].Inject(&Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	if net.Quiescent() {
		t.Fatal("network with pending injection reported quiescent")
	}
	net.Step()
	if net.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", net.InFlight())
	}
	if net.OutstandingFrom(cores[0].ID) != 1 {
		t.Fatalf("OutstandingFrom = %d, want 1", net.OutstandingFrom(cores[0].ID))
	}
	net.Drain(100)
	if !net.Quiescent() || net.InFlight() != 0 || net.OutstandingFrom(cores[0].ID) != 0 {
		t.Fatal("network did not return to quiescent state")
	}
}

func TestArrivalGap(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	var gaps []int64
	cores[1].Sink = func(_ int64, m *Message) { gaps = append(gaps, m.ArrivalGap) }
	// Two messages injected 3 cycles apart.
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	net.Step()
	net.Step()
	net.Step()
	cores[0].Inject(&Message{ID: 2, Dst: cores[1].ID, SizeFlits: 1})
	net.Drain(100)
	if len(gaps) != 2 {
		t.Fatalf("got %d deliveries", len(gaps))
	}
	if gaps[0] != 0 {
		t.Errorf("first arrival gap = %d, want 0", gaps[0])
	}
	if gaps[1] != 3 {
		t.Errorf("second arrival gap = %d, want 3", gaps[1])
	}
}

func TestLinkUtilization(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	if u := net.LinkUtilization(); u != 0 {
		t.Fatalf("idle utilization = %v, want 0", u)
	}
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID, SizeFlits: 5})
	net.Step() // inject + grant: west router's east output busy
	if u := net.LinkUtilization(); u <= 0 {
		t.Fatalf("utilization after grant = %v, want > 0", u)
	}
}

func TestStepWithoutPolicyPanics(t *testing.T) {
	net, _ := buildMesh(t, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Step without a policy did not panic")
		}
	}()
	net.Step()
}

func TestInjectRejectsZeroFlits(t *testing.T) {
	_, cores := buildMesh(t, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Inject with zero flits did not panic")
		}
	}()
	cores[0].Inject(&Message{ID: 1, Dst: cores[1].ID})
}

func TestGlobalAndLocalAge(t *testing.T) {
	m := &Message{InjectCycle: 10, ArrivalCycle: 30}
	if m.GlobalAge(50) != 40 || m.LocalAge(50) != 20 {
		t.Fatalf("ages = %d/%d, want 40/20", m.GlobalAge(50), m.LocalAge(50))
	}
}

func TestStringFormats(t *testing.T) {
	// Smoke-test Stringers so they do not regress into recursion or garbage.
	for _, s := range []fmt.Stringer{
		TypeRequest, TypeResponse, TypeCoherence, MsgType(99),
		DstCore, DstCache, DstMemory, DstType(99),
		PortCore, PortMem, PortNorth, PortSouth, PortWest, PortEast,
		Coord{1, 2},
	} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

// matcherPolicy drives the engine's matched-arbitration path with a trivial
// maximal matching (first candidate per output, skipping used inputs).
type matcherPolicy struct{}

func (matcherPolicy) Name() string                            { return "test-matcher" }
func (matcherPolicy) Select(_ *ArbContext, _ []Candidate) int { return 0 }
func (matcherPolicy) Match(_ *MatchContext, reqs []Request) []int {
	grants := make([]int, len(reqs))
	var used [MaxPorts]bool
	for i, req := range reqs {
		grants[i] = -1
		for ci, c := range req.Cands {
			if !used[c.Port] {
				grants[i] = ci
				used[c.Port] = true
				break
			}
		}
	}
	return grants
}

// TestMatchedEngineConservation exercises the Matcher-based arbitration path
// end to end (the path iSLIP and wavefront use).
func TestMatchedEngineConservation(t *testing.T) {
	net, cores := buildMesh(t, 4, 4, 2)
	net.SetPolicy(matcherPolicy{})
	rng := rand.New(rand.NewSource(12))
	var id uint64
	for i := 0; i < 1200; i++ {
		if rng.Float64() < 0.5 {
			id++
			src := cores[rng.Intn(len(cores))]
			dst := cores[rng.Intn(len(cores))]
			src.Inject(&Message{ID: id, Dst: dst.ID, Class: Class(rng.Intn(2)), SizeFlits: int32(1 + 4*rng.Intn(2))})
		}
		net.Step()
	}
	if !net.Drain(100000) {
		t.Fatal("matched engine did not drain")
	}
	if net.Stats().Delivered != int64(id) {
		t.Fatalf("delivered %d of %d", net.Stats().Delivered, id)
	}
}

// badMatcher grants the same input port twice; the engine must reject it.
type badMatcher struct{ matcherPolicy }

func (badMatcher) Match(_ *MatchContext, reqs []Request) []int {
	grants := make([]int, len(reqs))
	for i := range grants {
		grants[i] = 0 // always the first candidate, ignoring input reuse
	}
	return grants
}

func TestMatcherDoubleGrantPanics(t *testing.T) {
	net, cores := buildMesh(t, 4, 4, 3)
	net.SetPolicy(badMatcher{})
	rng := rand.New(rand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Fatal("double input grant not rejected")
		}
	}()
	// Under sustained multi-VC load, some router soon sees one input port
	// requesting two free outputs in the same cycle; the engine must reject
	// the matcher that grants both.
	var id uint64
	for i := 0; i < 1000; i++ {
		for _, src := range cores {
			id++
			dst := cores[rng.Intn(len(cores))]
			src.Inject(&Message{ID: id, Dst: dst.ID, Class: Class(rng.Intn(3)), SizeFlits: int32(1 + 4*rng.Intn(2))})
		}
		net.Step()
	}
}

func TestPerSourceFairnessStats(t *testing.T) {
	net, cores := buildMesh(t, 2, 2, 1)
	net.SetPolicy(firstPolicy{})
	cores[0].Inject(&Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	cores[1].Inject(&Message{ID: 2, Dst: cores[2].ID, SizeFlits: 1})
	net.Drain(100)
	st := net.Stats()
	if got := len(st.SourceMeanLatencies()); got != 2 {
		t.Fatalf("per-source latencies = %d, want 2", got)
	}
	if j := st.FairnessIndex(); j <= 0 || j > 1 {
		t.Fatalf("fairness index %v", j)
	}
}

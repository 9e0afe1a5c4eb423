package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestInjectQueueFIFOUnderBacklog piles a deep backlog onto one node and
// checks that the queue's list preserves FIFO order, drains fully, and keeps
// its length consistent throughout.
func TestInjectQueueFIFOUnderBacklog(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})

	const n = 5000
	var got []uint64
	cores[1].Sink = func(now int64, m *Message) { got = append(got, m.ID) }
	for i := 0; i < n; i++ {
		cores[0].Inject(&Message{ID: uint64(i + 1), Dst: cores[1].ID, SizeFlits: 1})
	}
	if p := cores[0].qLen; p != n {
		t.Fatalf("pending = %d, want %d", p, n)
	}
	prevPending := n
	for i := 0; i < 10*n && !net.Quiescent(); i++ {
		net.Step()
		p := cores[0].qLen
		if p > prevPending || p < 0 {
			t.Fatalf("pending went from %d to %d", prevPending, p)
		}
		prevPending = p
	}
	if !net.Quiescent() {
		t.Fatal("backlog did not drain")
	}
	if cores[0].qLen != 0 {
		t.Fatalf("pending = %d after drain", cores[0].qLen)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("delivery %d has id %d; FIFO order broken", i, id)
		}
	}
}

// TestInjectQueueInterleaved keeps injecting while the queue drains, so the
// list empties and refills over and over.
func TestInjectQueueInterleaved(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	net.SetPolicy(firstPolicy{})
	var delivered int
	var lastID uint64
	cores[1].Sink = func(now int64, m *Message) {
		if m.ID <= lastID {
			t.Fatalf("out of order: %d after %d", m.ID, lastID)
		}
		lastID = m.ID
		delivered++
	}
	nextID := uint64(1)
	rng := rand.New(rand.NewSource(7))
	for cycle := 0; cycle < 12000; cycle++ {
		if cycle < 9000 {
			// Inject in bursts so the queue oscillates between deep and empty.
			for k := 0; k < rng.Intn(3); k++ {
				cores[0].Inject(&Message{ID: nextID, Dst: cores[1].ID, SizeFlits: 1})
				nextID++
			}
		}
		net.Step()
	}
	if !net.Drain(20000) {
		t.Fatal("network did not drain")
	}
	if want := int(nextID - 1); delivered != want {
		t.Fatalf("delivered %d of %d", delivered, want)
	}
}

// TestLinkUtilizationMatchesRecount cross-checks the incrementally maintained
// busy-output count against a direct recount of port busy state every cycle.
func TestLinkUtilizationMatchesRecount(t *testing.T) {
	net, cores := buildMesh(t, 4, 4, 2)
	net.SetPolicy(firstPolicy{})
	rng := rand.New(rand.NewSource(3))

	totalOutputs := 0
	for _, r := range net.Routers() {
		totalOutputs += r.nPorts
	}
	net.OnCycle = func(n *Network) {
		now := n.Cycle()
		busy := 0
		for _, r := range n.Routers() {
			for p := PortID(0); p < MaxPorts; p++ {
				if r.HasPort(p) && r.outBusyUntil[p] > now {
					busy++
				}
			}
		}
		want := float64(busy) / float64(totalOutputs)
		if got := n.LinkUtilization(); got != want {
			t.Fatalf("cycle %d: incremental utilization %v, recount %v", now, got, want)
		}
	}
	var id uint64
	for cycle := 0; cycle < 3000; cycle++ {
		for _, c := range cores {
			if rng.Float64() < 0.1 {
				id++
				net.Step() // interleave stepping and injection points
				c.Inject(&Message{
					ID:        id,
					Dst:       cores[rng.Intn(len(cores))].ID,
					Class:     Class(rng.Intn(2)),
					SizeFlits: int32(1 + rng.Intn(4)),
				})
			}
		}
		net.Step()
	}
	net.Drain(10000)
}

// TestLinkUtilizationZeroOutputs guards the totalOutputs == 0 case: a mesh
// with no attached nodes and no links must report zero utilization, not a
// stale or NaN value.
func TestLinkUtilizationZeroOutputs(t *testing.T) {
	net := New(Config{Width: 1, Height: 1})
	net.SetPolicy(firstPolicy{})
	for i := 0; i < 10; i++ {
		net.Step()
		if u := net.LinkUtilization(); u != 0 {
			t.Fatalf("utilization = %v on a network with no outputs", u)
		}
	}
}

// countingObserver records engine events for the observer-hook test.
type countingObserver struct {
	injects, grants, delivers int
}

func (o *countingObserver) ObserveInject(int64, *Node, *Message)           { o.injects++ }
func (o *countingObserver) ObserveGrant(int64, *Router, PortID, Candidate) { o.grants++ }
func (o *countingObserver) ObserveDeliver(int64, *Node, *Message)          { o.delivers++ }

// TestObserverSeesAllEvents checks that every injection, grant and delivery
// reaches registered observers, and that AddOnCycle chains instead of
// clobbering.
func TestObserverSeesAllEvents(t *testing.T) {
	net, cores := buildMesh(t, 3, 3, 1)
	net.SetPolicy(firstPolicy{})
	var ob countingObserver
	net.AddObserver(&ob)

	first, second := 0, 0
	net.OnCycle = func(*Network) { first++ }
	net.AddOnCycle(func(*Network) { second++ })

	rng := rand.New(rand.NewSource(11))
	const n = 200
	for i := 0; i < n; i++ {
		src := rng.Intn(len(cores))
		dst := rng.Intn(len(cores))
		for dst == src {
			dst = rng.Intn(len(cores))
		}
		cores[src].Inject(&Message{ID: uint64(i + 1), Dst: cores[dst].ID, SizeFlits: 1})
	}
	if !net.Drain(100000) {
		t.Fatal("network did not drain")
	}
	st := net.Stats()
	if int64(ob.injects) != st.Injected || int64(ob.delivers) != st.Delivered {
		t.Fatalf("observer saw %d injects / %d delivers; stats say %d / %d",
			ob.injects, ob.delivers, st.Injected, st.Delivered)
	}
	if ob.delivers != n {
		t.Fatalf("delivered %d of %d", ob.delivers, n)
	}
	// Every message needs at least one grant (source router output), and
	// grants never exceed one per hop+ejection.
	if ob.grants < n {
		t.Fatalf("grants %d < deliveries %d", ob.grants, n)
	}
	if first == 0 || first != second {
		t.Fatalf("OnCycle chain broken: first=%d second=%d", first, second)
	}
}

// TestSchedulePanicReportsDelay is the regression test for the schedule panic
// message: an over-length delay must be reported as a delay/wheel mismatch
// with the actual numbers, not as a generic flit-count complaint.
func TestSchedulePanicReportsDelay(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 1, BufferCap: 2})
	net.SetPolicy(orderPolicy{})
	// 40 flits exceed MaxFlits=32: the serialization delay overruns the
	// 34-slot delivery wheel at the first grant.
	nodes[0].Inject(&Message{ID: 1, Dst: nodes[3].ID, SizeFlits: 40})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("over-length delay did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"delay 40", "34-slot wheel", "MaxFlits=32", "40 flits"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	for range 4 {
		net.Step()
	}
}

// TestScheduleTakenSlotPanics: an output holds one delivery at a time, so a
// grant onto an output whose slot in the delivery store is still taken is an
// engine bug, and schedule must say so instead of overwriting the delivery.
func TestScheduleTakenSlotPanics(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 2, Height: 1, VCs: 1, BufferCap: 2})
	net.SetPolicy(orderPolicy{})
	nodes[0].Inject(&Message{ID: 1, Dst: nodes[1].ID, SizeFlits: 1})
	// The first Step injects the message and grants it router 0's east output.
	net.dels[0*MaxPorts+int(PortEast)] = delivery{msg: &Message{ID: 99}}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "still in flight") || !strings.Contains(msg, "msg#99") {
			t.Fatalf("grant onto a taken slot panicked with %q", msg)
		}
	}()
	net.Step()
}

// fixedRouting sends every head to one port, whatever the router.
type fixedRouting struct{ out PortID }

func (fixedRouting) Name() string                     { return "fixed" }
func (f fixedRouting) Route(*Router, *Message) PortID { return f.out }

// TestRouteToMissingPortPanics: a verdict naming a port the router lacks is a
// routing bug. The engine must say so, naming the routing, the router, the
// port and the message, instead of leaving the head stale to be routed again
// every cycle and never move.
func TestRouteToMissingPortPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  PortID
	}{
		{"out-of-range", PortID(MaxPorts + 3)},
		{"missing-edge-port", PortWest}, // router (0,0) has no west neighbor
		{"absent-attach-port", PortMem}, // BuildMeshCores attaches at PortCore only
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, nodes := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 1})
			net.SetPolicy(orderPolicy{})
			net.SetRouting(fixedRouting{tc.out})
			nodes[0].Inject(&Message{ID: 7, Dst: nodes[3].ID, SizeFlits: 1})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("route to %s did not panic", tc.out)
				}
				msg := fmt.Sprint(r)
				for _, want := range []string{"routing fixed", "msg#7", "output " + tc.out.String(), "router#0"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			net.Step()
		})
	}
}

// TestNewRejectsTooManyVCs pins the configuration limit: a router's masks
// hold one bit per (port, VC), so MaxVCs = 10 builds and 11 is an error.
func TestNewRejectsTooManyVCs(t *testing.T) {
	New(Config{Width: 2, Height: 2, VCs: 10})
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "MaxVCs") {
			t.Fatalf("11 VCs: panic %q does not name MaxVCs", msg)
		}
	}()
	New(Config{Width: 2, Height: 2, VCs: 11})
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
			for m := nd.qHead; m != nil; m = m.next {
				total++
			}
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

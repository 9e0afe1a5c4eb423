package noc

import (
	"math/rand"
	"testing"
)

// TestTorusWiring checks the wraparound links: every router has all four
// direction neighbors, edge routers wrap to the opposite edge, and the
// Opposite pairing holds across wrap links exactly as on interior ones.
func TestTorusWiring(t *testing.T) {
	net, _ := BuildMeshCores(Config{Width: 4, Height: 3, VCs: 1, BufferCap: 2, Torus: true})
	for _, r := range net.Routers() {
		for _, p := range []PortID{PortNorth, PortSouth, PortWest, PortEast} {
			next := r.Neighbor(p)
			if next == nil {
				t.Fatalf("%s has no neighbor at %s on a torus", r, p)
			}
			if back := next.Neighbor(p.Opposite()); back != r {
				t.Fatalf("Opposite pairing broken: %s --%s--> %s --%s--> %v",
					r, p, next, p.Opposite(), back)
			}
		}
	}
	if got := net.RouterAt(0, 0).Neighbor(PortWest); got != net.RouterAt(3, 0) {
		t.Fatalf("west wrap of (0,0) = %s, want (3,0)", got)
	}
	if got := net.RouterAt(0, 0).Neighbor(PortNorth); got != net.RouterAt(0, 2) {
		t.Fatalf("north wrap of (0,0) = %s, want (0,2)", got)
	}
	if got := net.RouterAt(3, 2).Neighbor(PortEast); got != net.RouterAt(0, 2) {
		t.Fatalf("east wrap of (3,2) = %s, want (0,2)", got)
	}
}

// TestTorusTooSmall pins the dimension guard: rings shorter than 3 would make
// a router's two ring directions coincide.
func TestTorusTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("2-wide torus did not panic")
		}
	}()
	New(Config{Width: 2, Height: 4, Torus: true})
}

// TestTorusDirTowardAndDistance checks ring-shortest dimension-ordered routing
// and the topology-aware Distance metric, including the deterministic
// east/south tie-break at exactly half an even ring.
func TestTorusDirTowardAndDistance(t *testing.T) {
	net, _ := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 1, BufferCap: 2, Torus: true})
	r := net.RouterAt(0, 0)
	cases := []struct {
		to   Coord
		want PortID
		dist int
	}{
		{Coord{X: 1, Y: 0}, PortEast, 1},
		{Coord{X: 3, Y: 0}, PortWest, 1},  // wrap is shorter: 1 vs 3
		{Coord{X: 2, Y: 0}, PortEast, 2},  // exact half: tie-break east
		{Coord{X: 0, Y: 2}, PortSouth, 2}, // exact half: tie-break south
		{Coord{X: 0, Y: 3}, PortNorth, 1},
		{Coord{X: 3, Y: 3}, PortWest, 2}, // X corrected before Y
	}
	for _, c := range cases {
		if got := r.DirToward(c.to); got != c.want {
			t.Errorf("DirToward(%s) = %s, want %s", c.to, got, c.want)
		}
		if got := net.Distance(r.Coord, c.to); got != c.dist {
			t.Errorf("Distance((0,0), %s) = %d, want %d", c.to, got, c.dist)
		}
	}
	// Mesh semantics are untouched: the same coordinates on an open mesh.
	mesh, _ := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 1, BufferCap: 2})
	if got := mesh.RouterAt(0, 0).DirToward(Coord{X: 3, Y: 0}); got != PortEast {
		t.Errorf("mesh DirToward((3,0)) = %s, want east", got)
	}
	if got := mesh.Distance(Coord{X: 0, Y: 0}, Coord{X: 3, Y: 3}); got != 6 {
		t.Errorf("mesh Distance = %d, want 6", got)
	}
}

// TestTorusWrapDelivery sends one message the wrap way around and checks it
// arrives in ring-distance hops with the Distance field recorded to match.
func TestTorusWrapDelivery(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 5, Height: 5, VCs: 1, BufferCap: 2, Torus: true})
	net.SetPolicy(firstPolicy{})
	var hops, dist int
	nodes[0].Sink = nil
	src := nodes[net.RouterAt(0, 0).ID()]
	dst := nodes[net.RouterAt(4, 4).ID()]
	dst.Sink = func(now int64, m *Message) { hops, dist = int(m.HopCount), int(m.Distance) }
	src.Inject(&Message{ID: 1, Dst: dst.ID, SizeFlits: 1})
	if !net.Drain(100) {
		t.Fatal("message not delivered")
	}
	// (0,0) -> (4,4) on a 5-ring is one hop west and one hop north.
	if hops != 2 || dist != 2 {
		t.Fatalf("hops=%d dist=%d, want 2/2 via wraparound", hops, dist)
	}
}

// TestTorusConservation runs random traffic on a healthy torus and checks the
// conservation identity Injected == Delivered + Unreachable + InFlight at
// every sampled instant and exactly after drain.
//
// The injection rate is deliberately moderate: ring-shortest DOR on a torus
// has a cyclic channel dependency around each wrapped ring (the open mesh's
// deadlock-freedom argument does not transfer), and message classes double as
// VCs here, so no dateline channel split is possible. At saturation a healthy
// torus can therefore wedge — by design, and documented in DESIGN.md §4 —
// while the conservation identity keeps holding.
func TestTorusConservation(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 6, Height: 6, VCs: 2, BufferCap: 4, Torus: true})
	net.SetPolicy(firstPolicy{})
	rng := rand.New(rand.NewSource(11))
	var id uint64
	for cycle := 0; cycle < 400; cycle++ {
		for i, nd := range nodes {
			if rng.Float64() >= 0.05 {
				continue
			}
			id++
			m := net.AllocMessage()
			m.ID = id
			m.Dst = nodes[(i+1+rng.Intn(len(nodes)-1))%len(nodes)].ID
			m.Class = Class(rng.Intn(2))
			m.SizeFlits = int32(1 + rng.Intn(3))
			nd.Inject(m)
		}
		net.Step()
		if cycle%23 == 0 {
			s, fs := net.Stats(), net.FaultStats()
			if s.Injected != s.Delivered+fs.Unreachable+net.InFlight() {
				t.Fatalf("cycle %d: injected=%d delivered=%d unreachable=%d inflight=%d",
					cycle, s.Injected, s.Delivered, fs.Unreachable, net.InFlight())
			}
		}
	}
	if !net.Drain(5000) {
		t.Fatal("healthy torus failed to drain")
	}
	s := net.Stats()
	if s.Injected != s.Delivered || s.Injected == 0 {
		t.Fatalf("after drain: injected=%d delivered=%d", s.Injected, s.Delivered)
	}
}

package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
)

func mesh(w, h, vcs int) (*noc.Network, []*noc.Node) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: w, Height: h, VCs: vcs, BufferCap: 4})
	net.SetPolicy(arb.NewGlobalAge())
	return net, cores
}

// drive injects deterministic uniform-random traffic, one candidate message
// per cycle for the given number of cycles, then drains.
func drive(net *noc.Network, cores []*noc.Node, seed int64, cycles int) {
	rng := rand.New(rand.NewSource(seed))
	vcs := net.Config().VCs
	id := uint64(0)
	for i := 0; i < cycles; i++ {
		src := cores[rng.Intn(len(cores))]
		dst := cores[rng.Intn(len(cores))]
		if src != dst {
			id++
			src.Inject(&noc.Message{
				ID:        id,
				Dst:       dst.ID,
				Class:     noc.Class(rng.Intn(vcs)),
				SizeFlits: int32(1 + rng.Intn(4)),
			})
		}
		net.Step()
	}
	net.Drain(100_000)
}

// traceDeliveries records every delivery as "cycle:msgID:dstNode" in order.
func traceDeliveries(cores []*noc.Node) *[]string {
	var trace []string
	for _, c := range cores {
		c := c
		c.Sink = func(now int64, m *noc.Message) {
			trace = append(trace, fmt.Sprintf("%d:%d:%d", now, m.ID, c.ID))
		}
	}
	return &trace
}

// TestHealthySpecBitIdentical pins the zero-cost-off acceptance criterion: a
// network equipped with an all-healthy fault Spec (fault-aware table routing
// installed, injector attached, nothing scheduled) produces a delivery trace
// bit-identical to the plain fault-free network.
func TestHealthySpecBitIdentical(t *testing.T) {
	run := func(equip bool) []string {
		net, cores := mesh(4, 4, 3)
		if equip {
			if _, err := (Spec{}).Equip(net); err != nil {
				t.Fatalf("Equip: %v", err)
			}
			if !net.Faulty() {
				t.Fatal("equipped network should report Faulty (routing installed)")
			}
		}
		trace := traceDeliveries(cores)
		drive(net, cores, 42, 600)
		if net.Stats().Delivered == 0 {
			t.Fatal("no traffic delivered")
		}
		return *trace
	}
	plain := run(false)
	equipped := run(true)
	if len(plain) != len(equipped) {
		t.Fatalf("delivery counts differ: plain %d, equipped %d", len(plain), len(equipped))
	}
	for i := range plain {
		if plain[i] != equipped[i] {
			t.Fatalf("delivery %d differs: plain %q, equipped %q", i, plain[i], equipped[i])
		}
	}
}

// TestTableRoutingRoutesAroundKills kills several links mid-run on a mesh
// that stays connected and requires every message to still arrive: no
// unreachable verdicts, no losses, and reroutes actually happen.
func TestTableRoutingRoutesAroundKills(t *testing.T) {
	net, cores := mesh(4, 4, 2)
	var plan Plan
	// Kill three interior links at cycle 100; the 4x4 mesh stays connected.
	plan.KillLink(net.RouterAt(1, 1).ID(), noc.PortEast, 100)
	plan.KillLink(net.RouterAt(2, 2).ID(), noc.PortSouth, 100)
	plan.KillLink(net.RouterAt(0, 1).ID(), noc.PortEast, 100)
	inj, err := (Spec{Plan: plan}).Equip(net)
	if err != nil {
		t.Fatalf("Equip: %v", err)
	}
	drive(net, cores, 7, 800)
	s := net.Stats()
	fs := inj.Stats()
	if s.Injected == 0 || s.Delivered != s.Injected {
		t.Fatalf("lost messages: injected %d, delivered %d (unreachable %d, requeued %d)",
			s.Injected, s.Delivered, fs.Unreachable, fs.Requeued)
	}
	if fs.Unreachable != 0 {
		t.Fatalf("connected mesh produced %d unreachable verdicts", fs.Unreachable)
	}
	if fs.Reroutes == 0 {
		t.Fatal("no reroutes counted despite killed links on active paths")
	}
	if fs.LinksDown != 6 { // 3 undirected kills = 6 directed links
		t.Fatalf("LinksDown = %d, want 6", fs.LinksDown)
	}
	if fs.LinkKills != 3 {
		t.Fatalf("LinkKills = %d, want 3", fs.LinkKills)
	}
}

// TestPartitionConservation splits a 2x1 mesh mid-run and checks the
// accounting identity Injected == Delivered + Unreachable after drain: a
// message stranded on the wrong side of a partition is evicted and counted,
// never silently lost.
func TestPartitionConservation(t *testing.T) {
	net, cores := mesh(2, 1, 1)
	var plan Plan
	plan.KillLink(0, noc.PortEast, 50)
	inj, err := (Spec{Plan: plan}).Equip(net)
	if err != nil {
		t.Fatalf("Equip: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	id := uint64(0)
	for i := 0; i < 200; i++ {
		src, dst := cores[rng.Intn(2)], cores[rng.Intn(2)]
		if src != dst {
			id++
			src.Inject(&noc.Message{ID: id, Dst: dst.ID, SizeFlits: int32(1 + rng.Intn(3))})
		}
		net.Step()
	}
	if !net.Drain(10_000) {
		t.Fatal("partitioned network did not drain — stranded messages were not evicted")
	}
	s := net.Stats()
	fs := inj.Stats()
	if fs.Unreachable == 0 {
		t.Fatal("partition produced no unreachable verdicts")
	}
	if s.Injected != s.Delivered+fs.Unreachable {
		t.Fatalf("conservation broken: injected=%d delivered=%d unreachable=%d",
			s.Injected, s.Delivered, fs.Unreachable)
	}
}

// TestWestFirstRouting checks the turn model: eastbound traffic detours
// minimally around a dead east link, while westbound traffic blocked on its
// only admissible direction gets the unreachable verdict.
func TestWestFirstRouting(t *testing.T) {
	net, cores := mesh(3, 3, 1)
	wf, err := NewWestFirstRouting(net)
	if err != nil {
		t.Fatal(err)
	}
	net.SetRouting(wf)
	// Kill the east link out of (1,1) — both directions.
	mid := net.RouterAt(1, 1).ID()
	net.SetLinkDown(mid, noc.PortEast, true)
	net.SetLinkDown(net.RouterAt(2, 1).ID(), noc.PortWest, true)

	// Eastbound (1,1) -> (2,2): east is dead at (1,1) but the pending
	// southward hop is a minimal detour (south, then east, then deliver).
	src := cores[4] // (1,1) in row-major order
	dst := cores[8] // (2,2)
	src.Inject(&noc.Message{ID: 1, Dst: dst.ID, SizeFlits: 1})
	if !net.Drain(200) || net.Stats().Delivered != 1 {
		t.Fatalf("eastbound message not delivered around dead link (delivered=%d)", net.Stats().Delivered)
	}
	if net.FaultStats().Reroutes == 0 {
		t.Fatal("detour not counted as a reroute")
	}

	// Westbound (2,1) -> (0,1): west is the only admissible direction under
	// west-first, so the dead west link is an unreachable verdict.
	cores[5].Inject(&noc.Message{ID: 2, Dst: cores[3].ID, SizeFlits: 1})
	net.Run(10)
	if net.FaultStats().Unreachable != 1 {
		t.Fatalf("Unreachable = %d, want 1 (west-first cannot detour westbound)", net.FaultStats().Unreachable)
	}
}

// TestRandomLinkKillsConnectivity samples kill plans at several fractions and
// verifies they are deterministic per seed and never disconnect the mesh.
func TestRandomLinkKillsConnectivity(t *testing.T) {
	net, _ := mesh(8, 8, 1)
	links := MeshLinks(net)
	if len(links) != 2*8*7 {
		t.Fatalf("8x8 mesh has %d links, want %d", len(links), 2*8*7)
	}
	for _, frac := range []float64{0.05, 0.15, 0.5} {
		rng := rand.New(rand.NewSource(9))
		plan, err := RandomLinkKills(net, frac, 10, rng)
		if err != nil {
			t.Fatalf("RandomLinkKills(%v): %v", frac, err)
		}
		if len(plan.Events) == 0 {
			t.Fatalf("RandomLinkKills(%v) produced no kills", frac)
		}
		killed := make(map[Link]bool)
		for _, e := range plan.Events {
			killed[Link{Router: e.Router, Port: e.Port}] = true
		}
		if !connectedWithout(net, links, killed) {
			t.Fatalf("RandomLinkKills(%v) disconnected the mesh", frac)
		}
		rng2 := rand.New(rand.NewSource(9))
		plan2, err := RandomLinkKills(net, frac, 10, rng2)
		if err != nil || len(plan2.Events) != len(plan.Events) {
			t.Fatalf("same seed gave different plans (%d vs %d kills)", len(plan.Events), len(plan2.Events))
		}
		for i := range plan.Events {
			if plan.Events[i] != plan2.Events[i] {
				t.Fatalf("same seed, kill %d differs: %v vs %v", i, plan.Events[i], plan2.Events[i])
			}
		}
	}
	if _, err := RandomLinkKills(net, 1.5, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := RandomLinkKills(net, 0.1, 0, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestPlanValidate(t *testing.T) {
	net, _ := mesh(2, 2, 1)
	cases := []struct {
		name string
		plan func() Plan
	}{
		{"router out of range", func() Plan {
			var p Plan
			p.KillLink(99, noc.PortEast, 0)
			return p
		}},
		{"unconnected port", func() Plan {
			var p Plan
			// Router 0 is the NW corner: no west neighbor.
			p.KillLink(0, noc.PortWest, 0)
			return p
		}},
		{"negative start", func() Plan {
			var p Plan
			p.KillLink(0, noc.PortEast, -5)
			return p
		}},
	}
	for _, tc := range cases {
		if err := tc.plan().Validate(net); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", tc.name)
		}
	}
	var ok Plan
	ok.KillLink(0, noc.PortEast, 10)
	ok.KillLink(3, noc.PortWest, 5)
	if err := ok.Validate(net); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	var bad Plan
	bad.KillLink(99, noc.PortEast, 0)
	if _, err := (Spec{Plan: bad}).Equip(net); err == nil {
		t.Error("Equip accepted invalid plan")
	}
}

// TestKillTakesEffectAtItsCycle pins the timing rule: a kill scheduled for
// cycle A is in force during cycle A's arbitration, and not before. A hook
// registered ahead of the injector sees the state each cycle ran with.
func TestKillTakesEffectAtItsCycle(t *testing.T) {
	net, _ := mesh(2, 1, 1)
	down, downtime := []int64{0}, []int64{0} // indexed by cycle
	net.AddOnCycle(func(net *noc.Network) {
		fs := net.FaultStats()
		down, downtime = append(down, fs.LinksDown), append(downtime, fs.DowntimeCycles)
	})
	var plan Plan
	plan.KillLink(0, noc.PortEast, 10)
	if _, err := (Spec{Plan: plan}).Equip(net); err != nil {
		t.Fatalf("Equip: %v", err)
	}
	net.Run(20)
	if down[9] != 0 || down[10] != 2 {
		t.Fatalf("LinksDown after cycles 9 and 10 = %d, %d; want 0, 2", down[9], down[10])
	}
	for c := int64(1); c <= 20; c++ {
		if want := 2 * max(0, c-9); downtime[c] != want {
			t.Fatalf("DowntimeCycles after cycle %d = %d, want %d", c, downtime[c], want)
		}
	}
}

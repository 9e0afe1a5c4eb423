package fault

import (
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
)

// torus builds a cores-on-every-router torus with the global-age policy, the
// torus counterpart of the mesh helper.
func torus(w, h, vcs int) (*noc.Network, []*noc.Node) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: w, Height: h, VCs: vcs, BufferCap: 4, Torus: true})
	net.SetPolicy(arb.NewGlobalAge())
	return net, cores
}

// TestTorusFaultConservation cuts one torus router off entirely (all four
// ring links killed) and checks the conservation identity
// Injected == Delivered + Unreachable + InFlight: traffic to the dead router
// gets explicit unreachable verdicts, everything else routes around the hole
// over the wraparound links, and nothing is silently lost.
func TestTorusFaultConservation(t *testing.T) {
	net, cores := torus(5, 5, 2)
	dead := net.RouterAt(2, 2)
	var plan Plan
	for _, p := range []noc.PortID{noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast} {
		plan.KillLink(dead.ID(), p, 100)
	}
	inj, err := (Spec{Plan: plan}).Equip(net)
	if err != nil {
		t.Fatalf("Equip: %v", err)
	}
	drive(net, cores, 53, 1200)
	s := net.Stats()
	fs := inj.Stats()
	if s.Injected != s.Delivered+fs.Unreachable+net.InFlight() {
		t.Fatalf("conservation broken: injected=%d delivered=%d unreachable=%d inflight=%d",
			s.Injected, s.Delivered, fs.Unreachable, net.InFlight())
	}
	if fs.Unreachable == 0 {
		t.Fatal("no unreachable verdicts despite a fully cut-off router")
	}
	if fs.Reroutes == 0 {
		t.Fatal("no reroutes counted; torus healthy paths never detoured")
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d messages still in flight after drain; up*/down* wedged on the torus", net.InFlight())
	}
}

// TestWestFirstRejectsTorus pins the explicit capability check: the west-first
// turn model's deadlock-freedom proof needs an open mesh, so construction on a
// torus must fail with an error instead of wedging at runtime.
func TestWestFirstRejectsTorus(t *testing.T) {
	net, _ := torus(4, 4, 1)
	if _, err := NewWestFirstRouting(net); err == nil {
		t.Fatal("NewWestFirstRouting accepted a torus")
	}
	mesh, _ := mesh(4, 4, 1)
	if _, err := NewWestFirstRouting(mesh); err != nil {
		t.Fatalf("NewWestFirstRouting rejected an open mesh: %v", err)
	}
}

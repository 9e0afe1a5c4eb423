package fault

import (
	"testing"

	"mlnoc/internal/noc"
)

// opaqueRouting hides its routing's cacheable-verdict declaration, which forces
// the engine onto the legacy arbitration path: every head re-routed for every
// output every cycle, plus the per-cycle unreachable sweep.
type opaqueRouting struct{ noc.Routing }

// TestActiveSetInvarianceDegraded pins the active-set stepping engine against
// the full-scan engine through the deepest fault stack in the repo: table
// routing degrades to up*/down* after mid-run link kills, messages carry
// RouteBits phase state, outages repair, and a router freezes. TableRouting's
// verdicts are cached, so each head is routed once and evicted from that pass
// — any divergence in route coverage or eviction order shows up as a trace or
// stats mismatch. The full-scan base is checked against the active-set walk
// and against the legacy path (opaqueRouting).
func TestActiveSetInvarianceDegraded(t *testing.T) {
	topologies := map[string]func() (*noc.Network, []*noc.Node){
		"mesh":  func() (*noc.Network, []*noc.Node) { return mesh(4, 4, 2) },
		"torus": func() (*noc.Network, []*noc.Node) { return torus(4, 4, 2) },
	}
	for tname, build := range topologies {
		t.Run(tname, func(t *testing.T) {
			run := func(fullScan, legacy bool) (*noc.Network, []string, Stats) {
				net, cores := build()
				var plan Plan
				plan.KillLink(net.RouterAt(1, 1).ID(), noc.PortEast, 100)
				plan.KillLink(net.RouterAt(2, 2).ID(), noc.PortSouth, 100)
				plan.Outage(net.RouterAt(0, 1).ID(), noc.PortEast, 150, 400)
				plan.FreezeRouter(net.RouterAt(3, 0).ID(), 200, 350)
				inj, err := (Spec{Plan: plan}).Equip(net)
				if err != nil {
					t.Fatalf("Equip: %v", err)
				}
				if legacy {
					net.SetRouting(opaqueRouting{net.Routing()})
				}
				net.SetActiveStepping(!fullScan)
				trace := traceDeliveries(cores)
				drive(net, cores, 31, 800)
				return net, *trace, inj.Stats()
			}
			baseNet, baseTrace, baseStats := run(true, false)
			if baseStats.Reroutes == 0 || baseStats.Requeued == 0 {
				t.Fatalf("fault scenario is vacuous: %+v", baseStats)
			}
			if len(baseTrace) == 0 {
				t.Fatal("no deliveries recorded")
			}
			for _, leg := range []string{"legacy oracle", "active set"} {
				net, trace, stats := run(false, leg == "legacy oracle")
				if len(trace) != len(baseTrace) {
					t.Fatalf("%s: delivery counts diverge: %d vs %d", leg, len(trace), len(baseTrace))
				}
				for i := range baseTrace {
					if trace[i] != baseTrace[i] {
						t.Fatalf("%s: delivery %d diverges: %q vs %q", leg, i, trace[i], baseTrace[i])
					}
				}
				if stats != baseStats {
					t.Fatalf("%s: fault stats diverge: %+v vs %+v", leg, stats, baseStats)
				}
				if net.Stats().Injected != baseNet.Stats().Injected ||
					net.Stats().Latency.Mean() != baseNet.Stats().Latency.Mean() {
					t.Fatalf("%s: network stats diverge", leg)
				}
			}
		})
	}
}

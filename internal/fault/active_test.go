package fault

import (
	"hash/fnv"
	"math"
	"testing"

	"mlnoc/internal/noc"
)

// TestActiveSetInvarianceDegraded holds the stepping engine to literals
// through the deepest fault stack in the repo: table routing degrades to
// up*/down* after mid-run link kills, messages carry RouteBits phase state,
// an outage repairs, and a router freezes. Each head is routed once and
// evicted from that pass; any change in route coverage or eviction order
// moves the FNV-64a digest of the delivery log (each line followed by a
// newline), the counters or the latency bits. The literals were recorded on
// the last commit with the full-scan walk and the legacy per-output gather,
// where both reproduced them.
func TestActiveSetInvarianceDegraded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(w, h, vcs int) (*noc.Network, []*noc.Node)

		digest              uint64
		injected, delivered int64
		latencyBits         uint64
		stats               Stats
	}{
		{name: "mesh", build: mesh,
			digest: 0x34ee04c8088b1021, injected: 747, delivered: 747, latencyBits: 0x402f1f2fa2c8d31b,
			stats: Stats{FaultStats: noc.FaultStats{LinksDown: 4, DowntimeCycles: 3364, Requeued: 6, Reroutes: 386},
				LinkKills: 2, LinkOutages: 1, RouterFreezes: 1, Repairs: 1}},
		{name: "torus", build: torus,
			digest: 0x45bcc507d827a754, injected: 747, delivered: 747, latencyBits: 0x402a98d896ca3206,
			stats: Stats{FaultStats: noc.FaultStats{LinksDown: 4, DowntimeCycles: 3332, Requeued: 3, Reroutes: 286},
				LinkKills: 2, LinkOutages: 1, RouterFreezes: 1, Repairs: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, cores := tc.build(4, 4, 2)
			var plan Plan
			plan.KillLink(net.RouterAt(1, 1).ID(), noc.PortEast, 100)
			plan.KillLink(net.RouterAt(2, 2).ID(), noc.PortSouth, 100)
			plan.Outage(net.RouterAt(0, 1).ID(), noc.PortEast, 150, 400)
			plan.FreezeRouter(net.RouterAt(3, 0).ID(), 200, 350)
			inj, err := (Spec{Plan: plan}).Equip(net)
			if err != nil {
				t.Fatalf("Equip: %v", err)
			}
			trace := traceDeliveries(cores)
			drive(net, cores, 31, 800)
			h := fnv.New64a()
			for _, line := range *trace {
				h.Write([]byte(line))
				h.Write([]byte{'\n'})
			}
			st, stats := net.Stats(), inj.Stats()
			latency := math.Float64bits(st.Latency.Mean())
			if h.Sum64() != tc.digest || st.Injected != tc.injected || st.Delivered != tc.delivered ||
				latency != tc.latencyBits || stats != tc.stats {
				t.Fatalf("trace moved: digest %#x injected %d delivered %d latency bits %#x stats %+v; "+
					"pinned %#x %d %d %#x %+v", h.Sum64(), st.Injected, st.Delivered, latency, stats,
					tc.digest, tc.injected, tc.delivered, tc.latencyBits, tc.stats)
			}
		})
	}
}

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
// and an outage repairs. Each head is routed once and evicted from that pass;
// any change in route coverage or eviction order moves the FNV-64a digest of
// the delivery log (each line followed by a newline), the counters or the
// latency bits. The schedule once also froze a router: the literals were
// recorded on the last commit with router freezing, from the schedule as it
// is now.
func TestActiveSetInvarianceDegraded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(w, h, vcs int) (*noc.Network, []*noc.Node)

		digest              uint64
		injected, delivered int64
		latencyBits         uint64
		stats               noc.FaultStats
	}{
		{name: "mesh", build: mesh,
			digest: 0x10667698e371e922, injected: 747, delivered: 747, latencyBits: 0x402857bb758c2a80,
			stats: noc.FaultStats{LinksDown: 4, DowntimeCycles: 3364, Requeued: 6, Reroutes: 386}},
		{name: "torus", build: torus,
			digest: 0x47d1be18bd7d65cd, injected: 747, delivered: 747, latencyBits: 0x4023c92ad6886573,
			stats: noc.FaultStats{LinksDown: 4, DowntimeCycles: 3332, Requeued: 3, Reroutes: 286}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, cores := tc.build(4, 4, 2)
			// Two kills at 100 and an outage over [150,400), each set at the
			// end of the cycle before it takes effect and followed by a table
			// rebuild.
			rt := NewTableRouting(net)
			net.SetRouting(rt)
			link := func(r *noc.Router, p noc.PortID, down bool) {
				net.SetLinkDown(r.ID(), p, down)
				net.SetLinkDown(r.Neighbor(p).ID(), p.Opposite(), down)
			}
			net.AddOnCycle(func(net *noc.Network) {
				switch net.Cycle() + 1 {
				case 100:
					link(net.RouterAt(1, 1), noc.PortEast, true)
					link(net.RouterAt(2, 2), noc.PortSouth, true)
				case 150:
					link(net.RouterAt(0, 1), noc.PortEast, true)
				case 400:
					link(net.RouterAt(0, 1), noc.PortEast, false)
				default:
					return
				}
				rt.Rebuild()
			})
			trace := traceDeliveries(cores)
			drive(net, cores, 31, 800)
			h := fnv.New64a()
			for _, line := range *trace {
				h.Write([]byte(line))
				h.Write([]byte{'\n'})
			}
			st, stats := net.Stats(), net.FaultStats()
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

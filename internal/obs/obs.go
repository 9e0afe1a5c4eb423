// Package obs is the observability layer of the NoC simulator: per-router /
// per-port counters (grants, blocked cycles, buffer occupancy, per-VC head
// ages), cycle-sampled and exportable as JSON snapshots, and a starvation/
// livelock watchdog that turns silent hangs into structured diagnostics.
//
// The package hooks the engine through noc.Observer (event counters) and
// Network.AddOnCycle (cycle sampling and watchdog scans); it never alters
// simulation behaviour. A Collector belongs to one network and, like the
// network itself, is not safe for concurrent use; a Snapshot is a plain value
// that may cross goroutines.
package obs

import (
	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
)

// Latency-histogram shape: 4-cycle bins up to 1024 cycles, with quantiles in
// the overflow region interpolated toward the exact observed maximum.
const (
	latencyBinWidth = 4
	latencyBins     = 256
)

// portCounters accumulates per-input-port measurements.
type portCounters struct {
	grants     int64
	blocked    int64 // sampled cycles with a queued head that did not forward
	occSum     int64 // total queued messages over samples
	maxOcc     int
	maxHeadAge []int64 // per-VC max observed head local age
}

// routerCounters accumulates one router's measurements.
type routerCounters struct {
	ports     [noc.MaxPorts]*portCounters // nil where the port is unconnected
	injected  int64                       // messages entering the network here
	delivered int64                       // messages ejected at attached nodes
}

// Collector gathers per-router/per-port counters from one network: grant
// counts from engine events, and blocked cycles, buffer occupancy and head
// ages from cycle sampling. Create and install one with AttachCollector.
type Collector struct {
	net         *noc.Network
	sampleEvery int64
	startCycle  int64
	samples     int64
	routers     []routerCounters
	injected    int64
	delivered   int64
	// latency histograms generation-to-delivery latency for quantile
	// reporting (p50/p95/p99 in snapshots).
	latency *stats.Histogram
}

// AttachCollector creates a Collector for net and installs its hooks.
// Occupancy, blocked-cycle and head-age sampling runs every sampleEvery
// cycles (<= 1 means every cycle); event counters are exact regardless.
func AttachCollector(net *noc.Network, sampleEvery int64) *Collector {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	c := &Collector{
		net:         net,
		sampleEvery: sampleEvery,
		startCycle:  net.Cycle(),
		routers:     make([]routerCounters, len(net.Routers())),
		latency:     stats.NewHistogram(latencyBinWidth, latencyBins),
	}
	vcs := net.Config().VCs
	for i, r := range net.Routers() {
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			if !r.HasPort(p) {
				continue
			}
			c.routers[i].ports[p] = &portCounters{maxHeadAge: make([]int64, vcs)}
		}
	}
	net.AddObserver(c)
	net.AddOnCycle(c.onCycle)
	return c
}

// ObserveInject implements noc.Observer.
func (c *Collector) ObserveInject(now int64, node *noc.Node, m *noc.Message) {
	c.injected++
	c.routers[node.Router.ID()].injected++
}

// ObserveGrant implements noc.Observer.
func (c *Collector) ObserveGrant(now int64, r *noc.Router, out noc.PortID, cand noc.Candidate) {
	c.routers[r.ID()].ports[cand.Port].grants++
}

// ObserveDeliver implements noc.Observer.
func (c *Collector) ObserveDeliver(now int64, node *noc.Node, m *noc.Message) {
	c.delivered++
	c.routers[node.Router.ID()].delivered++
	c.latency.Add(float64(now - m.GenCycle))
}

// onCycle samples buffer state after arbitration.
func (c *Collector) onCycle(net *noc.Network) {
	now := net.Cycle()
	if (now-c.startCycle)%c.sampleEvery != 0 {
		return
	}
	c.samples++
	for i, r := range net.Routers() {
		rc := &c.routers[i]
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			pc := rc.ports[p]
			if pc == nil {
				continue
			}
			occ, queuedHead := 0, false
			for vc := range pc.maxHeadAge {
				b := r.Buffer(p, vc)
				occ += b.Len()
				if m := b.Head(); m != nil {
					queuedHead = true
					if age := m.LocalAge(now); age > pc.maxHeadAge[vc] {
						pc.maxHeadAge[vc] = age
					}
				}
			}
			pc.occSum += int64(occ)
			if occ > pc.maxOcc {
				pc.maxOcc = occ
			}
			if queuedHead && !r.ForwardedThisCycle(p, now) {
				pc.blocked++
			}
		}
	}
}

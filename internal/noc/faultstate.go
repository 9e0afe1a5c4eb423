package noc

import "fmt"

// FaultStats counts the engine-level effects of injected faults. All counters
// stay zero (and cost nothing to maintain) until the first fault-related call
// touches the network; see Network.Faulty.
type FaultStats struct {
	// LinksDown is the number of directed links currently down.
	LinksDown int64 `json:"links_down"`
	// DowntimeCycles accumulates, per cycle, the number of directed links
	// down during that cycle (i.e. the sum of per-link downtimes).
	DowntimeCycles int64 `json:"downtime_cycles"`
	// Requeued counts messages pulled out of harm's way instead of being lost
	// in flight: off a killed link back into the upstream router's buffer, or
	// stranded by a routing-table change and requeued at their source node
	// (RequeueStranded).
	Requeued int64 `json:"requeued"`
	// Reroutes counts grants whose output port deviated from the X-Y port —
	// messages actively routed around damage by a fault-aware Routing.
	Reroutes int64 `json:"reroutes"`
	// Unreachable counts messages evicted with an explicit
	// unreachable-destination verdict (RouteUnreachable).
	Unreachable int64 `json:"unreachable"`
}

// Faulty reports whether any fault machinery has touched the network: a link
// taken down or a custom Routing installed. While false,
// the fault layer is zero-cost: Step takes the exact code path of a
// fault-free network.
func (n *Network) Faulty() bool { return n.faulty }

// FaultStats returns a copy of the accumulated fault counters.
func (n *Network) FaultStats() FaultStats { return n.fstats }

// SetLinkDown sets the state of the directed link leaving router rid through
// port p. Taking a link down removes it from arbitration — the output
// accepts no further grants and, being unable to deliver, effectively
// returns no credits — and requeues any message currently serializing
// across it at the upstream router (the returned count), so in-flight
// messages are never lost to a link kill. Taking a node's attach port down
// also blocks that node's injections. Restoring a link (down=false) is
// immediate. It panics on an unconnected port.
func (n *Network) SetLinkDown(rid int, p PortID, down bool) int {
	r := n.routers[rid]
	if !r.HasPort(p) {
		panic(fmt.Sprintf("noc: SetLinkDown on unconnected port %s of %s", p, r))
	}
	if r.linkDown[p] == down {
		return 0
	}
	r.linkDown[p] = down
	n.faulty = true
	// A link transition (either direction) can change the routing verdict of
	// any buffered head anywhere in the network.
	n.invalidateRoutes()
	if !down {
		n.fstats.LinksDown--
		return 0
	}
	n.fstats.LinksDown++
	return n.requeueLink(r, p)
}

// requeueLink pulls the delivery still in flight across the dead directed
// link (r, p) — the one in output p's slot — off the wheel and requeues its
// message at the upstream router r, in the input buffer of port p for its
// class. The buffer may transiently exceed its capacity (it accepts no new
// arrivals until it drains below cap); this is the price of never losing a
// granted message.
func (n *Network) requeueLink(r *Router, p PortID) int {
	out := int32(r.id*MaxPorts + int(p))
	requeued := 0
	n.unlinkDeliveries(func(i int32) bool {
		if i != out {
			return false
		}
		d := &n.dels[i]
		if d.to != nil {
			// Undo the downstream buffer reservation and the hop count
			// credited at grant time.
			d.to.unreserve(p.Opposite(), int(d.msg.Class))
			d.msg.HopCount--
		}
		requeued++
		n.fstats.Requeued++
		r.push(p, int(d.msg.Class), n.cycle, d.msg)
		if len(n.faultObs) > 0 {
			n.observeRequeue(r, p, d.msg)
		}
		return true
	})
	return requeued
}

// RequeueStranded scans every router input buffer and every delivery still in
// flight on a link, removes each message for which strand reports true, and
// requeues it at its source node's injection queue. Fault-aware routings call
// it after a table rebuild to pull out messages whose buffered position has no
// legal continuation under the new tables (e.g. an up*/down* phase violation
// left behind by a reorientation); strand may also normalize per-message
// routing state in place for messages it keeps.
//
// A requeued message keeps its GenCycle — source-to-sink latency still charges
// the wasted excursion — but its original injection is uncounted and recounted
// when it re-enters, so the conservation identity
// Injected == Delivered + Unreachable + InFlight holds at every instant.
func (n *Network) RequeueStranded(strand func(r *Router, p PortID, m *Message) bool) int {
	n.sizeNodeTables()
	requeued := 0
	reinject := func(r *Router, p PortID, m *Message) {
		n.stats.Injected--
		n.inflightCount--
		n.inflightBase -= m.InjectCycle
		n.inflightBySrc[m.Src]--
		n.fstats.Requeued++
		requeued++
		if len(n.faultObs) > 0 {
			n.observeRequeue(r, p, m)
		}
		n.nodes[m.Src].Inject(m)
	}
	for _, r := range n.routers {
		for p := PortID(0); p < MaxPorts; p++ {
			for vc := range r.in[p] {
				r.filter(p, vc, func(m *Message) bool {
					if strand(r, p, m) {
						reinject(r, p, m)
						return false
					}
					return true
				})
			}
		}
	}
	n.unlinkDeliveries(func(i int32) bool {
		// Deliveries to a router input buffer are mid-link messages; the
		// channel they occupy is the one feeding that buffer. Ejections to a
		// node always sink and are never stranded.
		d := &n.dels[i]
		if d.to == nil {
			return false
		}
		p := PortID(i % MaxPorts).Opposite()
		if !strand(d.to, p, d.msg) {
			return false
		}
		d.to.unreserve(p, int(d.msg.Class))
		d.msg.HopCount--
		reinject(d.to, p, d.msg)
		return true
	})
	return requeued
}

// evictHead removes the head message of input buffer in[p][vc] of router r
// from the network with an unreachable verdict, counting and reporting it.
func (n *Network) evictHead(r *Router, p PortID, vc int) {
	m := r.pop(p, vc)
	n.fstats.Unreachable++
	n.inflightCount--
	n.inflightBase -= m.InjectCycle
	n.inflightBySrc[m.Src]--
	if len(n.faultObs) > 0 {
		n.observeUnreachable(r, m)
	}
	n.recycleMessage(m)
}

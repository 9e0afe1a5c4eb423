// Package fault is the fault layer of the NoC simulator: deterministic
// schedules of permanent link kills (an explicit Plan, or a seeded,
// connectivity-preserving random wave from RandomLinkKills), an Injector that
// applies them to a noc.Network at their cycle, and fault-aware routing
// algorithms (a minimal table router rebuilt on every kill and a west-first
// turn-model fallback) that route around dead links or return an explicit
// unreachable verdict. Spec.Equip installs the whole scenario.
//
// The design contract is graceful degradation without silent loss: a message
// in flight across a killed link is requeued upstream, a message whose
// destination became unreachable is evicted with a counted verdict, and with
// an all-healthy Spec the fault layer is zero-cost — every result is
// bit-identical to the fault-free code path.
package fault

import (
	"fmt"

	"mlnoc/internal/noc"
)

// Event is one scheduled permanent kill of the link at the upstream router's
// output port, in both directions.
type Event struct {
	Router int        // router ID
	Port   noc.PortID // output port
	// From is the first cycle the link is down.
	From int64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("kill link router#%d.%s at cycle %d", e.Router, e.Port, e.From)
}

// Plan is a deterministic fault schedule: a list of link kills applied to a
// network by an Injector. The zero value is the all-healthy plan.
type Plan struct {
	Events []Event
}

// KillLink schedules a permanent kill of the link at (router, port) from
// cycle at onward.
func (p *Plan) KillLink(router int, port noc.PortID, at int64) {
	p.Events = append(p.Events, Event{Router: router, Port: port, From: at})
}

// Validate checks every event against the target network: router IDs in
// range, connected ports, and non-negative cycles.
func (p Plan) Validate(net *noc.Network) error {
	routers := net.Routers()
	for i, e := range p.Events {
		if e.Router < 0 || e.Router >= len(routers) {
			return fmt.Errorf("fault: event %d (%s): router %d out of range [0,%d)",
				i, e, e.Router, len(routers))
		}
		if e.From < 0 {
			return fmt.Errorf("fault: event %d (%s): negative start cycle", i, e)
		}
		if !routers[e.Router].HasPort(e.Port) {
			return fmt.Errorf("fault: event %d (%s): port not connected", i, e)
		}
	}
	return nil
}

// Stats aggregates the engine's fault counters with the injector's kill
// count.
type Stats struct {
	noc.FaultStats
	// LinkKills counts permanent link kills applied (undirected events, not
	// directed links).
	LinkKills int64 `json:"link_kills"`
}

// Injector applies a Plan's kills to a network cycle by cycle from an
// OnCycle hook, rebuilding its TableRouting after every cycle that killed a
// link. Spec.Equip installs it.
type Injector struct {
	net   *noc.Network
	rt    *TableRouting
	kills []Event // sorted by From
	next  int     // kills[:next] are applied
}

// onCycle runs at the end of every cycle `now`: kills due for cycle now+1
// apply so they are in force when that cycle arbitrates.
func (in *Injector) onCycle(net *noc.Network) { in.advance(net.Cycle() + 1) }

// advance applies every kill due at or before cycle eff and, if any was,
// rebuilds the routing tables.
func (in *Injector) advance(eff int64) {
	before := in.next
	for ; in.next < len(in.kills) && in.kills[in.next].From <= eff; in.next++ {
		e := in.kills[in.next]
		in.net.SetLinkDown(e.Router, e.Port, true)
		if !e.Port.IsDirection() {
			continue
		}
		if peer := in.net.Routers()[e.Router].Neighbor(e.Port); peer != nil {
			in.net.SetLinkDown(peer.ID(), e.Port.Opposite(), true)
		}
	}
	if in.next > before {
		in.rt.Rebuild()
	}
}

// Stats returns the combined engine and injector fault counters.
func (in *Injector) Stats() Stats {
	return Stats{FaultStats: in.net.FaultStats(), LinkKills: int64(in.next)}
}

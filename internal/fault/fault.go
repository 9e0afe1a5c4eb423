// Package fault is the fault-injection and resilience layer of the NoC
// simulator: deterministic, seeded fault schedules (permanent link kills,
// transient link outages, router freezes, and a stochastic hazard process
// driven by an explicit *rand.Rand), an Injector that applies them to a
// noc.Network through its link-state hooks, and fault-aware routing
// algorithms (a minimal table router rebuilt on fault events and a
// west-first turn-model fallback) that route around dead links or return an
// explicit unreachable verdict.
//
// The design contract is graceful degradation without silent loss: a message
// in flight across a killed link is requeued upstream, a message whose
// destination became unreachable is evicted with a counted, reported
// verdict, and with an all-healthy Plan the fault layer is zero-cost — every
// result is bit-identical to the fault-free code path.
package fault

import (
	"fmt"
	"sort"

	"mlnoc/internal/noc"
)

// Kind classifies a fault event.
type Kind uint8

// Fault event kinds.
const (
	// KindLinkKill takes a link down permanently at Event.From.
	KindLinkKill Kind = iota
	// KindLinkOutage takes a link down at Event.From and restores it at
	// Event.To.
	KindLinkOutage
	// KindRouterFreeze stops a router from making any grants during
	// [Event.From, Event.To); with To == 0 the freeze is permanent.
	KindRouterFreeze
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLinkKill:
		return "link-kill"
	case KindLinkOutage:
		return "link-outage"
	case KindRouterFreeze:
		return "router-freeze"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault. Link events identify a link by its upstream
// router and output port and, unless OneWay is set, affect both directions
// of the link.
type Event struct {
	Kind   Kind
	Router int        // router ID
	Port   noc.PortID // link events only
	// From is the first cycle the fault is in effect; To is the restoration
	// cycle (exclusive), 0 meaning never.
	From, To int64
	// OneWay restricts a link event to the Router -> peer direction.
	OneWay bool
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case KindLinkKill:
		return fmt.Sprintf("kill link router#%d.%s at cycle %d", e.Router, e.Port, e.From)
	case KindLinkOutage:
		return fmt.Sprintf("outage link router#%d.%s cycles [%d,%d)", e.Router, e.Port, e.From, e.To)
	case KindRouterFreeze:
		if e.To == 0 {
			return fmt.Sprintf("freeze router#%d at cycle %d", e.Router, e.From)
		}
		return fmt.Sprintf("freeze router#%d cycles [%d,%d)", e.Router, e.From, e.To)
	}
	return e.Kind.String()
}

// Plan is a deterministic fault schedule: a list of events applied to a
// network by an Injector. The zero value is the all-healthy plan.
type Plan struct {
	Events []Event
}

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	return Plan{Events: append([]Event(nil), p.Events...)}
}

// KillLink schedules a permanent kill of the link at (router, port) from
// cycle at onward.
func (p *Plan) KillLink(router int, port noc.PortID, at int64) {
	p.Events = append(p.Events, Event{Kind: KindLinkKill, Router: router, Port: port, From: at})
}

// Outage schedules a transient outage of the link at (router, port): down at
// cycle from, restored at cycle to.
func (p *Plan) Outage(router int, port noc.PortID, from, to int64) {
	p.Events = append(p.Events, Event{Kind: KindLinkOutage, Router: router, Port: port, From: from, To: to})
}

// FreezeRouter schedules a router freeze during [from, to); to == 0 freezes
// forever.
func (p *Plan) FreezeRouter(router int, from, to int64) {
	p.Events = append(p.Events, Event{Kind: KindRouterFreeze, Router: router, From: from, To: to})
}

// Validate checks every event against the target network: router IDs in
// range, link events on connected ports, and coherent cycle bounds.
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
		switch e.Kind {
		case KindLinkKill:
			if !routers[e.Router].HasPort(e.Port) {
				return fmt.Errorf("fault: event %d (%s): port not connected", i, e)
			}
		case KindLinkOutage:
			if !routers[e.Router].HasPort(e.Port) {
				return fmt.Errorf("fault: event %d (%s): port not connected", i, e)
			}
			if e.To <= e.From {
				return fmt.Errorf("fault: event %d (%s): outage must end after it starts", i, e)
			}
		case KindRouterFreeze:
			if e.To != 0 && e.To <= e.From {
				return fmt.Errorf("fault: event %d (%s): freeze must end after it starts", i, e)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// transition is one state flip derived from an event: a fault taking effect
// (down) or being repaired.
type transition struct {
	at   int64
	ev   Event
	down bool
}

// timeline expands the plan into transitions sorted by cycle.
func (p Plan) timeline() []transition {
	ts := make([]transition, 0, 2*len(p.Events))
	for _, e := range p.Events {
		ts = append(ts, transition{at: e.From, ev: e, down: true})
		if e.To > 0 {
			ts = append(ts, transition{at: e.To, ev: e, down: false})
		}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].at < ts[j].at })
	return ts
}

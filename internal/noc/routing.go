package noc

// RouteUnreachable is the explicit unreachable-destination verdict a Routing
// implementation returns when no admissible healthy path to the destination
// exists from the queried router. The engine evicts a head message whose
// route is RouteUnreachable from its buffer, counts it in FaultStats, and
// reports it to every FaultObserver — messages are never silently
// blackholed.
const RouteUnreachable PortID = -1

// Routing is a pluggable per-hop routing algorithm. Route returns the output
// port taking m one hop closer to its destination from router r, the
// destination node's attach port once m sits at its destination router, or
// RouteUnreachable when no healthy path exists. Any other port r lacks is a
// routing bug, and the engine panics on it. Routings read the destination
// from m.DstRouter(), which Node.Inject resolves once per message, not by
// looking m.Dst up.
//
// The engine routes each message once, when it becomes a buffer head, and
// again after each link or routing transition (Network.SetLinkDown,
// SetRouting, RequeueStranded); it caches the verdict in between. So Route
// must be deterministic, depend only on r, m and state that changes only at
// such a transition (topology, link health, tables rebuilt from fault
// events), and write only to m, idempotently.
//
// When no Routing is installed the engine uses built-in dimension-ordered
// X-Y routing (XYRouting's behaviour) without an interface call.
type Routing interface {
	Name() string
	Route(r *Router, m *Message) PortID
}

// ShardSafeRouting is a marker the engine ignores: every Routing's verdicts
// are cached. It survives only because benchmark/ names it, and is deleted
// together with benchmark/'s decorator for it when the benchmark harness is
// unified.
type ShardSafeRouting interface {
	Routing
	ShardSafe() bool
}

// XYRouting is dimension-ordered X-Y routing, the default algorithm: correct
// X first, then Y, then deliver to the destination node's attach port. It is
// oblivious to link faults: a message whose X-Y port is a dead link waits
// (and is flagged by the obs watchdog as fault-blackholed) rather than
// rerouting.
type XYRouting struct{}

// Name implements Routing.
func (XYRouting) Name() string { return "xy" }

// Route implements Routing.
func (XYRouting) Route(r *Router, m *Message) PortID { return r.XYPort(m) }

// ShardSafe implements ShardSafeRouting, which the engine ignores.
func (XYRouting) ShardSafe() bool { return true }

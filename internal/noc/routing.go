package noc

// RouteUnreachable is the explicit unreachable-destination verdict a Routing
// implementation returns when no admissible healthy path to the destination
// exists from the queried router. The engine evicts a head message whose
// route is RouteUnreachable from its buffer, counts it in FaultStats, and
// reports it through the unreachable handler — messages are never silently
// blackholed.
const RouteUnreachable PortID = -1

// Routing is a pluggable per-hop routing algorithm. Route returns the output
// port taking m one hop closer to its destination from router r, the
// destination node's attach port once m sits at its destination router, or
// RouteUnreachable when no healthy path exists.
//
// Route is called from the arbitration hot path and must be deterministic.
// Implementations that maintain tables (see internal/fault) rebuild them from
// fault events, not inside Route.
//
// How often it is called depends on what the routing promises. A routing that
// declares its verdicts cacheable (the marker interface below) is asked once
// when a message reaches a buffer head, and once more after each fault or
// routing transition (Network.SetLinkDown, SetRouting, RequeueStranded); the
// engine caches the verdict in between and evicts an unreachable head the
// moment it is routed. Every other routing is opaque to the engine and is asked several
// times per head per cycle — once per candidate output plus the unreachable
// sweep — in a fixed order it may rely on.
//
// When no Routing is installed the engine uses built-in dimension-ordered
// X-Y routing (XYRouting's behaviour) without an interface call.
type Routing interface {
	Name() string
	Route(r *Router, m *Message) PortID
}

// ShardSafeRouting marks a Routing whose verdicts may be cached per head: Route
// must depend only on the queried router, the message, and state that changes
// only at a fault or routing transition (topology, link health, routing tables
// rebuilt from fault events), and may write only to the message itself,
// idempotently. The engine then calls Route once when a message reaches a
// buffer head and once more after each such transition, and arbitrates from
// the cached verdicts (the mask kernel). A routing whose verdict may change at
// any other time must not declare it. Routings that do not implement the
// interface — or return false — get the legacy gather: every head re-routed
// every cycle, in a fixed order.
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

// ShardSafe implements ShardSafeRouting: X-Y routing is a pure function of
// (router, message destination).
func (XYRouting) ShardSafe() bool { return true }

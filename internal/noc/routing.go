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
// declares itself ShardSafe (see ShardSafeRouting) is asked once when a message
// reaches a buffer head, and once more after each fault or routing transition
// (Network.SetLinkDown, SetRouting, RequeueStranded); the engine caches the
// verdict in between and evicts an unreachable head the moment it is routed.
// A routing whose verdict may change at any other time must not declare
// ShardSafe. Every other routing is opaque to the engine and is asked several
// times per head per cycle — once per candidate output plus the unreachable
// sweep — in a fixed order it may rely on.
//
// When no Routing is installed the engine uses built-in dimension-ordered
// X-Y routing (XYRouting's behaviour) without an interface call.
type Routing interface {
	Name() string
	Route(r *Router, m *Message) PortID
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
// (router, message destination) with no cross-router state.
func (XYRouting) ShardSafe() bool { return true }

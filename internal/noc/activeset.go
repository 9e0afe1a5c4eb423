package noc

// Active-set stepping.
//
// inject() and arbitrate() visit only the nodes and routers that can act, so
// a cycle costs O(active), not O(topology):
//
//   - actR bit r is set iff router r holds a buffered message (occ != 0). It
//     changes only on the 0<->nonzero transitions of Router.occ inside
//     Router.push/pop/filter, so it is never stale. A router with occ == 0
//     has no head to route, evict or grant.
//   - actN bit n is set iff node n has a pending injection (Node.Inject and
//     Node.dequeue).
//
// Both bitmaps are scanned with bits.TrailingZeros64, so visits run in
// ascending router/node ID. No activity bit is set during arbitration
// (deliveries land on future cycles; grants and evictions pop only from the
// visited router), so the per-word snapshot cannot miss a router. What a visit
// costs is the arbitration state in router.go: only new heads are routed.
// Observers must not inject from inside ObserveInject (see Observer).

// ActiveRouters returns the number of routers holding at least one buffered
// message: the routers arbitration visits this cycle.
func (n *Network) ActiveRouters() int { return n.actRCount }

// activateRouter and deactivateRouter maintain the router-activity bitmap and
// its population count. They are called exactly on the 0<->nonzero
// transitions of r.occ (Router push/pop/filter), so the count never drifts.
func (n *Network) activateRouter(r *Router) {
	n.actR[r.actWord] |= r.actMask
	n.actRCount++
}

func (n *Network) deactivateRouter(r *Router) {
	n.actR[r.actWord] &^= r.actMask
	n.actRCount--
}

// activateNode and deactivateNode maintain the node-activity bitmap on the
// empty<->non-empty transitions of a node's injection queue.
func (n *Network) activateNode(id NodeID) {
	n.actN[id>>6] |= 1 << (uint(id) & 63)
}

func (n *Network) deactivateNode(id NodeID) {
	n.actN[id>>6] &^= 1 << (uint(id) & 63)
}

package noc

// Active-set stepping.
//
// A large, lightly loaded topology spends almost all of its per-cycle budget
// visiting routers and nodes that have nothing to do: inject() walks every
// node and arbitrate() walks every router — O(topology) per cycle even when
// the in-flight population touches a handful of routers. The active-set
// engine makes those walks O(active):
//
//   - actR is a router-activity bitmap: bit r is set iff router r has at
//     least one buffered message (occ != 0). It is maintained on the exact
//     0<->nonzero transitions of Router.occ inside Buffer.push/pop/syncOcc,
//     so it is never stale and costs one word-OR only when a router wakes or
//     drains. A router with occ == 0 produces no candidates on any output and
//     has no head to route or evict, so skipping it is exactly
//     behaviour-preserving.
//   - actN is a node-activity bitmap: bit n is set iff node n has a pending
//     injection (maintained in Node.Inject and Node.dequeue). A node with an
//     empty injection queue is a no-op in inject().
//
// What a visited router costs is the other half: its arbitration state
// (Router.occ/stale/want/full, see router.go and routeHeads in network.go)
// holds each head's route from the moment it becomes head, so a visit routes
// only the heads that changed — evicting those with an unreachable verdict in
// the same pass — and reads its candidates off per-output request masks.
//
// Both bitmaps are scanned with bits.TrailingZeros64, so visit order is
// ascending router/node ID — identical to the full scans they replace — and
// a seeded run stays bit-identical, under a policy or a matcher, for every
// topology and fault schedule. SetActiveStepping(false) forces the full walks
// for A/B benchmarking and for the equivalence suites that pin that contract.
//
// During arbitration no activity bit is ever set (deliveries land on future
// cycles; grants and evictions pop only from the arbitrated router's own
// buffers), so the per-word snapshot taken by the scan loops cannot miss a
// router. The one behavioural contract this adds: engine observers must not
// inject messages from inside ObserveInject (Sink and OnCycle remain the
// supported injection points) — see Observer.

// SetActiveStepping enables (the default) or disables active-set stepping.
// With it disabled the engine runs the full walks — every node in inject,
// every router in arbitrate. Both modes are bit-identical for every seeded
// run; the switch exists so benchmarks and equivalence tests can measure one
// against the other. It may be flipped between cycles at any time: the
// activity bitmaps are maintained unconditionally, so no rebuild is needed.
func (n *Network) SetActiveStepping(on bool) { n.fullScan = !on }

// ActiveStepping reports whether arbitration runs on the active-set path:
// enabled (see SetActiveStepping) and occupancy tracking available
// (MaxPorts*VCs <= 64). The inject stage needs only the node bitmap and
// follows the enable flag alone.
func (n *Network) ActiveStepping() bool { return n.activeOK() }

// ActiveRouters returns the number of routers currently holding at least one
// buffered message — the size of the set arbitration visits. Meaningful only
// while occupancy tracking is on (it reads the incrementally maintained
// activity count).
func (n *Network) ActiveRouters() int { return n.actRCount }

// activeOK reports whether arbitrate may iterate the router-activity bitmap
// instead of the full router slice.
func (n *Network) activeOK() bool { return n.occTrack && !n.fullScan }

// activateRouter and deactivateRouter maintain the router-activity bitmap and
// its population count. They are called exactly on the 0<->nonzero
// transitions of r.occ (Buffer push/pop/syncOcc), so the count never drifts.
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

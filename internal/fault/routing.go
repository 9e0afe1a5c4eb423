package fault

import (
	"fmt"

	"mlnoc/internal/noc"
)

// dirPorts are the mesh direction ports in fixed priority order, used as the
// deterministic tie-break when several ports lie on equally short paths and
// none of them is the X-Y port.
var dirPorts = [4]noc.PortID{noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast}

// RouteDown is the noc.Message.RouteBits flag TableRouting sets once a
// message takes its first down edge in degraded (up*/down*) mode.
const RouteDown uint8 = 1

// TableRouting is a fault-aware router: for every destination router it holds
// next-hop ports, recomputed by Rebuild whenever the fault state changes.
//
// On an all-healthy topology the table is minimal with dimension-ordered
// tie-breaks, so it reproduces X-Y routing exactly (and inherits X-Y's
// deadlock freedom). Once any link is down it switches to up*/down* routing
// (Autonet): every healthy link is oriented by BFS level from a root router,
// and a legal path takes zero or more up edges followed by zero or more down
// edges — messages carry a phase bit (RouteBits) that commits on the first
// down edge. No down->up channel dependency can exist, so the dependency
// graph is acyclic and routing stays deadlock-free on an arbitrarily damaged
// mesh — minimal routing around faults is not (its cyclic detours wedge
// request/response workloads into buffer-full cycles), while up*/down* keeps
// every healthy link usable and paths near-minimal. Destinations with no
// healthy path get the explicit RouteUnreachable verdict.
type TableRouting struct {
	net      *noc.Network
	n        int  // number of routers
	degraded bool // false: minimal X-Y table; true: up*/down* tables
	// next[dst*n + at] is the direction port leaving router `at` toward
	// destination router `dst`, or -1 when unreachable. In degraded mode it
	// is the up-phase table (shortest legal path, any orientation next).
	next []int8
	// down[dst*n + at] is the degraded-mode down-phase table: the next hop
	// over down edges only, or -1.
	down []int8
	// level[r] is r's BFS depth from the root over healthy links (-1 when
	// cut off); together with the router ID it orients every edge.
	level []int
}

// NewTableRouting builds the routing tables for the network's current link
// state.
func NewTableRouting(net *noc.Network) *TableRouting {
	t := &TableRouting{net: net, n: len(net.Routers())}
	t.next = make([]int8, t.n*t.n)
	t.down = make([]int8, t.n*t.n)
	t.level = make([]int, t.n)
	t.Rebuild()
	return t
}

// Name implements noc.Routing.
func (t *TableRouting) Name() string { return "table" }

// Rebuild recomputes every next-hop entry from the network's current link
// state: the minimal X-Y-equivalent table while every link is healthy, the
// deadlock-free up*/down* tables once any link is down. The Injector calls
// it on every fault-state change; it is O(routers^2).
func (t *TableRouting) Rebuild() {
	if t.allHealthy() {
		t.degraded = false
		t.rebuildMinimal()
		t.renormalizeXY()
		return
	}
	t.degraded = true
	t.rebuildUpDown()
	t.renormalize()
}

// renormalizeXY is renormalize's counterpart for the transition back to full
// health: the table is exactly X-Y again, but a message parked mid-detour by
// up*/down* can occupy a vertical channel with X distance still to cover —
// the Y->X turn X-Y's deadlock freedom forbids. Those messages are requeued
// at their source; every other message routes X-Y legally from where it sits
// and just drops its stale phase bit. On a network that was never degraded
// this is a no-op, preserving the zero-cost-off contract.
func (t *TableRouting) renormalizeXY() {
	t.net.RequeueStranded(func(r *noc.Router, p noc.PortID, m *noc.Message) bool {
		m.RouteBits = 0
		dst := t.net.Node(m.Dst).Router
		if dst == r {
			return false
		}
		vertical := p == noc.PortNorth || p == noc.PortSouth
		return vertical && dst.Coord.X != r.Coord.X
	})
}

// renormalize restores the up*/down* invariant for messages already buffered
// or mid-link when the orientation (re)computes: every message occupying a
// down channel must be in the down phase, every other message restarts its
// climb. A message that crossed an edge before the rebuild — under healthy
// X-Y routing or an older orientation — can sit at the head of a channel the
// new orientation classifies as down while needing to climb; that single
// down->up dependency re-admits the buffer-full cycles up*/down* exists to
// prevent, and with message-class buffers only two deep it wedges real
// workloads within a few hundred cycles. Messages in a down channel with no
// all-down continuation toward their destination have no legal next hop at
// all and are requeued at their source (counted in FaultStats.Requeued).
func (t *TableRouting) renormalize() {
	t.net.RequeueStranded(func(r *noc.Router, p noc.PortID, m *noc.Message) bool {
		dst := t.net.Node(m.Dst).Router
		if dst == r {
			return false // ejects here; the attach channel always sinks
		}
		u := r.Neighbor(p)
		if u == nil || !t.downEdge(u, r) {
			// Injection channel or up channel: restarting the climb is legal.
			m.RouteBits &^= RouteDown
			return false
		}
		if t.down[dst.ID()*t.n+r.ID()] >= 0 {
			m.RouteBits |= RouteDown // keep descending
			return false
		}
		return true
	})
}

// allHealthy reports whether every inter-router link is up in both
// directions.
func (t *TableRouting) allHealthy() bool {
	for _, r := range t.net.Routers() {
		for _, p := range dirPorts {
			if r.Neighbor(p) != nil && !r.LinkUp(p) {
				return false
			}
		}
	}
	return true
}

// rebuildMinimal fills the table with shortest paths, tie-broken toward the
// topology's dimension-ordered port (Router.DirToward); on a healthy mesh this
// is exactly X-Y routing, and on a healthy torus exactly the built-in
// ring-shortest DOR — including the east/south tie at exactly half an even
// ring, where both ways around are shortest and DirToward picks the one the
// built-in routing takes.
func (t *TableRouting) rebuildMinimal() {
	routers := t.net.Routers()
	dist := make([]int, t.n)
	queue := make([]int, 0, t.n)
	for dstID, dst := range routers {
		base := dstID * t.n
		for i := range dist {
			dist[i] = -1
			t.next[base+i] = -1
		}
		// Reverse BFS from the destination: relax healthy directed links
		// u -> v while walking from v to u, so dist[u] is the healthy hop
		// count from u to dst.
		dist[dstID] = 0
		queue = append(queue[:0], dstID)
		for len(queue) > 0 {
			v := routers[queue[0]]
			queue = queue[1:]
			for _, p := range dirPorts {
				u := v.Neighbor(p)
				if u == nil || dist[u.ID()] >= 0 || !u.LinkUp(p.Opposite()) {
					continue
				}
				dist[u.ID()] = dist[v.ID()] + 1
				queue = append(queue, u.ID())
			}
		}
		for uID, u := range routers {
			if uID == dstID || dist[uID] < 0 {
				continue
			}
			xy := u.DirToward(dst.Coord)
			best := noc.PortID(-1)
			for _, p := range dirPorts {
				w := u.Neighbor(p)
				if w == nil || !u.LinkUp(p) || dist[w.ID()] != dist[uID]-1 {
					continue
				}
				if p == xy {
					best = p
					break
				}
				if best < 0 {
					best = p
				}
			}
			t.next[base+uID] = int8(best)
		}
	}
}

// healthyEdge reports whether the link behind u's direction port p is up in
// both directions (the Injector always fails direction links pairwise).
func healthyEdge(u *noc.Router, p noc.PortID) *noc.Router {
	v := u.Neighbor(p)
	if v == nil || !u.LinkUp(p) || !v.LinkUp(p.Opposite()) {
		return nil
	}
	return v
}

// downEdge reports whether the forward hop u -> v descends the up*/down*
// orientation (away from the root by BFS level, router ID breaking ties).
func (t *TableRouting) downEdge(u, v *noc.Router) bool {
	lu, lv := t.level[u.ID()], t.level[v.ID()]
	return lv > lu || (lv == lu && v.ID() > u.ID())
}

// rebuildUpDown fills the up- and down-phase tables with shortest legal
// up*/down* paths: orient every healthy link by BFS level from router 0, and
// per destination run a reverse BFS over (router, phase) states where an up
// edge keeps the up phase and a down edge commits to the down phase. Every
// table walk is a strict up-phase followed by a strict down-phase — no
// down->up channel dependency can exist, so no buffer-full cycle can form.
func (t *TableRouting) rebuildUpDown() {
	routers := t.net.Routers()
	for i := range t.level {
		t.level[i] = -1
	}
	t.level[0] = 0
	queue := make([]int, 0, t.n)
	queue = append(queue, 0)
	for len(queue) > 0 {
		u := routers[queue[0]]
		queue = queue[1:]
		for _, p := range dirPorts {
			v := healthyEdge(u, p)
			if v == nil || t.level[v.ID()] >= 0 {
				continue
			}
			t.level[v.ID()] = t.level[u.ID()] + 1
			queue = append(queue, v.ID())
		}
	}

	// dist over states rID*2 + phase; phase 0 climbs, phase 1 has committed
	// to descending.
	dist := make([]int32, 2*t.n)
	squeue := make([]int, 0, 2*t.n)
	for dstID, dst := range routers {
		base := dstID * t.n
		for i := 0; i < t.n; i++ {
			t.next[base+i] = -1
			t.down[base+i] = -1
		}
		if t.level[dstID] < 0 {
			continue // dst cut off entirely: unreachable from everywhere
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[dstID*2] = 0
		dist[dstID*2+1] = 0
		squeue = append(squeue[:0], dstID*2, dstID*2+1)
		for len(squeue) > 0 {
			s := squeue[0]
			squeue = squeue[1:]
			vID, ph := s/2, s%2
			v := routers[vID]
			for _, p := range dirPorts {
				u := healthyEdge(v, p)
				if u == nil {
					continue
				}
				// Forward edge u -> v reaches state (v, ph) from (u, 0) when
				// the edge orientation matches ph, and from (u, 1) only when
				// the edge descends.
				vIsDown := t.downEdge(u, v)
				if (ph == 1) != vIsDown {
					continue
				}
				if s0 := u.ID() * 2; dist[s0] < 0 {
					dist[s0] = dist[s] + 1
					squeue = append(squeue, s0)
				}
				if vIsDown {
					if s1 := u.ID()*2 + 1; dist[s1] < 0 {
						dist[s1] = dist[s] + 1
						squeue = append(squeue, s1)
					}
				}
			}
		}
		for uID, u := range routers {
			if uID == dstID || t.level[uID] < 0 {
				continue
			}
			xy := u.DirToward(dst.Coord)
			bestUp, bestDown := noc.PortID(-1), noc.PortID(-1)
			var costUp, costDown int32 = -1, -1
			for _, p := range dirPorts {
				v := healthyEdge(u, p)
				if v == nil {
					continue
				}
				var c int32
				if t.downEdge(u, v) {
					c = dist[v.ID()*2+1]
					if c >= 0 && (costDown < 0 || c < costDown || (c == costDown && p == xy)) {
						bestDown, costDown = p, c
					}
				} else {
					c = dist[v.ID()*2]
				}
				if c >= 0 && (costUp < 0 || c < costUp || (c == costUp && p == xy)) {
					bestUp, costUp = p, c
				}
			}
			t.next[base+uID] = int8(bestUp)
			t.down[base+uID] = int8(bestDown)
		}
	}
}

// Route implements noc.Routing. It reads only tables that rebuild on fault
// events and writes only m's RouteBits, idempotently, as the contract asks.
func (t *TableRouting) Route(r *noc.Router, m *noc.Message) noc.PortID {
	dst := t.net.Node(m.Dst)
	if dst.Router == r {
		if !r.LinkUp(dst.Port) {
			return noc.RouteUnreachable
		}
		return dst.Port
	}
	base := dst.Router.ID()*t.n + r.ID()
	if t.degraded {
		if m.RouteBits&RouteDown != 0 {
			if p := t.down[base]; p >= 0 {
				return noc.PortID(p)
			}
			// Only possible after a rebuild reoriented the edges under the
			// message: restart the climb under the new orientation.
			m.RouteBits &^= RouteDown
		}
		p := t.next[base]
		if p < 0 {
			return noc.RouteUnreachable
		}
		out := noc.PortID(p)
		if t.downEdge(r, r.Neighbor(out)) {
			m.RouteBits |= RouteDown
		}
		return out
	}
	p := t.next[base]
	if p < 0 {
		return noc.RouteUnreachable
	}
	return noc.PortID(p)
}

// ShardSafe implements noc.ShardSafeRouting, a marker the engine ignores.
func (t *TableRouting) ShardSafe() bool { return true }

// WestFirstRouting is the west-first turn model with minimal adaptivity: all
// westward hops happen first (no turning into west later), and eastbound
// traffic may detour minimally north or south around a dead east link. It
// needs no tables and no rebuilds — each hop consults live link state — at
// the price of weaker coverage than TableRouting: a message whose only
// admissible next hop under the turn model is dead gets the unreachable
// verdict even if a non-minimal healthy path exists.
type WestFirstRouting struct {
	net *noc.Network
}

// NewWestFirstRouting returns a west-first router for the network. The turn
// model's deadlock-freedom proof assumes an open mesh — wraparound links put
// the forbidden turns back into a cycle — so torus networks are rejected with
// an error (an explicit capability check, not a mid-run panic).
func NewWestFirstRouting(net *noc.Network) (*WestFirstRouting, error) {
	if net.Torus() {
		return nil, fmt.Errorf("fault: west-first routing requires an open mesh, not a torus")
	}
	return &WestFirstRouting{net: net}, nil
}

// Name implements noc.Routing.
func (w *WestFirstRouting) Name() string { return "west-first" }

// Route implements noc.Routing.
func (w *WestFirstRouting) Route(r *noc.Router, m *noc.Message) noc.PortID {
	dst := w.net.Node(m.Dst)
	dc := dst.Router.Coord
	dx, dy := dc.X-r.Coord.X, dc.Y-r.Coord.Y
	if dx < 0 {
		// Westward phase: west is the only admissible direction.
		if r.LinkUp(noc.PortWest) && r.Neighbor(noc.PortWest) != nil {
			return noc.PortWest
		}
		return noc.RouteUnreachable
	}
	if dx > 0 {
		if r.LinkUp(noc.PortEast) && r.Neighbor(noc.PortEast) != nil {
			return noc.PortEast
		}
		// Minimal adaptive detour: take the pending Y hop now instead.
		if dy > 0 && r.LinkUp(noc.PortSouth) && r.Neighbor(noc.PortSouth) != nil {
			return noc.PortSouth
		}
		if dy < 0 && r.LinkUp(noc.PortNorth) && r.Neighbor(noc.PortNorth) != nil {
			return noc.PortNorth
		}
		return noc.RouteUnreachable
	}
	if dy > 0 {
		if r.LinkUp(noc.PortSouth) && r.Neighbor(noc.PortSouth) != nil {
			return noc.PortSouth
		}
		return noc.RouteUnreachable
	}
	if dy < 0 {
		if r.LinkUp(noc.PortNorth) && r.Neighbor(noc.PortNorth) != nil {
			return noc.PortNorth
		}
		return noc.RouteUnreachable
	}
	if !r.LinkUp(dst.Port) {
		return noc.RouteUnreachable
	}
	return dst.Port
}

// ShardSafe implements noc.ShardSafeRouting, a marker the engine ignores.
func (w *WestFirstRouting) ShardSafe() bool { return true }

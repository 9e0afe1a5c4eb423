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

// TableRouting is a fault-aware router: X-Y routing while every link is up,
// and once any link is down, per-destination next-hop tables that Rebuild
// recomputes on every fault-state change.
//
// On an all-healthy topology it routes by geometry (Router.DirToward), so it
// reproduces X-Y routing exactly (and inherits X-Y's deadlock freedom) and
// holds no table. Once any link is down it switches to up*/down* routing
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
	width    int  // mesh width: router (x, y) has ID y*width+x
	degraded bool // false: X-Y by geometry; true: up*/down* tables
	// entry[dst*n + at] is router at's hop toward destination router dst in
	// degraded mode, one byte: the up-phase port (shortest legal path, any
	// orientation next) in entryPort, entryDescends when that hop takes a
	// down edge, and the down-phase port (down edges only) shifted up by
	// entryDownShift. A port field holds the noc.PortID, 0 for none (no
	// direction port is 0). Nil until a Rebuild first finds a dead link.
	entry []uint8
	// level[r] is r's BFS depth from the root over healthy links (-1 when
	// cut off); together with the router ID it orients every edge.
	level []int32
}

// Fields of a TableRouting entry byte.
const (
	entryPort      = 7
	entryDescends  = 8
	entryDownShift = 4
)

// NewTableRouting builds the routing for the network's current link state.
func NewTableRouting(net *noc.Network) *TableRouting {
	t := &TableRouting{net: net, n: len(net.Routers()), width: net.Config().Width}
	t.Rebuild()
	return t
}

// Name implements noc.Routing.
func (t *TableRouting) Name() string { return "table" }

// Rebuild recomputes the routing from the network's current link state: X-Y
// by geometry while every link is healthy, the deadlock-free up*/down*
// tables once any link is down. The Injector calls it after every cycle that
// killed a link. The tables cost two linear sweeps over the routers per
// destination, O(routers^2) in all.
func (t *TableRouting) Rebuild() {
	if t.allHealthy() {
		t.degraded = false
		t.renormalizeXY()
		return
	}
	t.degraded = true
	t.rebuildUpDown()
	t.renormalize()
}

// renormalizeXY is renormalize's counterpart for the transition back to full
// health: routing is exactly X-Y again, but a message parked mid-detour by
// up*/down* can occupy a vertical channel with X distance still to cover —
// the Y->X turn X-Y's deadlock freedom forbids. Those messages are requeued
// at their source; every other message routes X-Y legally from where it sits
// and just drops its stale phase bit. On a network that was never degraded
// this is a no-op, preserving the zero-cost-off contract.
func (t *TableRouting) renormalizeXY() {
	t.net.RequeueStranded(func(r *noc.Router, p noc.PortID, m *noc.Message) bool {
		m.RouteBits = 0
		dc, _ := m.DstRouter()
		if dc == r.Coord {
			return false
		}
		vertical := p == noc.PortNorth || p == noc.PortSouth
		return vertical && dc.X != r.Coord.X
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
		dc, _ := m.DstRouter()
		if dc == r.Coord {
			return false // ejects here; the attach channel always sinks
		}
		u := r.Neighbor(p)
		if u == nil || !t.downEdge(u, r) {
			// Injection channel or up channel: restarting the climb is legal.
			m.RouteBits &^= RouteDown
			return false
		}
		if t.entry[t.index(dc, r)]>>entryDownShift != 0 {
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

// unreachableDist is the hop count of a state with no legal path; it leaves
// room for the four low key bits below it in an int32.
const unreachableDist = 1 << 26

// rankKey[x][k] is the low bits of port dirPorts[k]'s sweep key when
// dirPorts[x] is the X-Y port: its tie-break rank (0 for the X-Y port, else
// 1 + k) shifted past the descends bit. rankPort[x][rank] inverts it to the
// noc.PortID.
var rankKey, rankPort = func() (key [4][4]int32, port [4][5]uint8) {
	for x := range key {
		port[x][0] = uint8(dirPorts[x])
		for k := range key[x] {
			port[x][k+1] = uint8(dirPorts[k])
			if k != x {
				key[x][k] = int32(k+1) << 1
			}
		}
	}
	return
}()

// rebuildUpDown fills the entry table with shortest legal up*/down* paths.
// Orient every healthy link by BFS level from router 0 and order the root's
// component by (level, id): a down edge leads to a later router, an up edge
// to an earlier one. Per destination the (router, phase) state graph is then
// acyclic: a descending state moves only to later routers, and a climbing
// state moves up to earlier routers or commits to a descending state. So one
// sweep in reverse order gives every down-only distance d1, and one forward
// sweep the climbing distance d0, each picking its port as it goes: the
// lowest key cost<<4 | rank<<1 | descends, that is the lowest cost, ties to
// the X-Y port, else to the first in dirPorts. Every table walk is a strict
// up-phase followed by a strict down-phase — no down->up channel dependency
// can exist, so no buffer-full cycle can form.
func (t *TableRouting) rebuildUpDown() {
	routers := t.net.Routers()
	n := t.n
	if t.entry == nil {
		t.entry = make([]uint8, n*n)
		t.level = make([]int32, n)
	}
	clear(t.entry) // cut-off routers and destinations stay unreachable

	// nb[4u+k] is the router behind u's port dirPorts[k] over a healthy
	// link, or -1.
	nb := make([]int32, 4*n)
	for u, r := range routers {
		for k, p := range dirPorts {
			nb[4*u+k] = -1
			if v := healthyEdge(r, p); v != nil {
				nb[4*u+k] = int32(v.ID())
			}
		}
	}
	for i := range t.level {
		t.level[i] = -1
	}
	t.level[0] = 0
	bfs := append(make([]int32, 0, n), 0)
	for h := 0; h < len(bfs); h++ {
		u := bfs[h]
		for _, v := range nb[4*u : 4*u+4] {
			if v >= 0 && t.level[v] < 0 {
				t.level[v] = t.level[u] + 1
				bfs = append(bfs, v)
			}
		}
	}
	// Counting sort of the component by (level, id).
	m := len(bfs)
	start := make([]int32, t.level[bfs[m-1]]+2)
	for _, u := range bfs {
		start[t.level[u]+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]int32, m)
	pos := make([]int32, n)
	for u, l := range t.level {
		if l >= 0 {
			order[start[l]] = int32(u)
			pos[u] = start[l]
			start[l]++
		}
	}

	// dist[2i] is position i's climbing distance d0, dist[2i+1] its down-only
	// distance d1, and dist[2m] an unreachable sentinel. upSlot[i][k] is the
	// dist slot the climbing sweep reads behind port dirPorts[k] of position
	// i — odd exactly when that hop descends — and dnSlot[i][k] the one the
	// descending sweep reads, the sentinel for up edges and missing links.
	sentinel := int32(2 * m)
	dist := make([]int32, 2*m+1)
	dist[sentinel] = unreachableDist
	upSlot := make([][4]int32, m)
	dnSlot := make([][4]int32, m)
	for i, u := range order {
		for k, v := range nb[4*u : 4*u+4] {
			up, dn := sentinel, sentinel
			if v >= 0 {
				if j := pos[v]; j > int32(i) {
					up, dn = 2*j+1, 2*j+1
				} else {
					up = 2 * j
				}
			}
			upSlot[i][k], dnSlot[i][k] = up, dn
		}
	}

	xy := make([]uint8, m)   // dirPorts index of the X-Y port, per position
	down := make([]uint8, m) // down-phase port, per position
	for q, dstID := range order {
		dc := routers[dstID].Coord
		for i, u := range order {
			if i != q {
				xy[i] = uint8(routers[u].DirToward(dc) - noc.PortNorth)
			}
		}
		// No router after the destination descends to it.
		for i := m - 1; i > q; i-- {
			dist[2*i+1], down[i] = unreachableDist, 0
		}
		dist[2*q+1] = 0
		for i := q - 1; i >= 0; i-- {
			s, rk := &dnSlot[i], &rankKey[xy[i]]
			best := min(dist[s[0]]<<4|rk[0], dist[s[1]]<<4|rk[1], dist[s[2]]<<4|rk[2], dist[s[3]]<<4|rk[3])
			dist[2*i+1] = min(best>>4+1, unreachableDist)
			down[i] = rankPort[xy[i]][best>>1&7]
			if best>>4 >= unreachableDist {
				down[i] = 0
			}
		}
		row := t.entry[int(dstID)*n : int(dstID)*n+n]
		for i := 0; i < m; i++ {
			if i == q {
				dist[2*i] = 0
				continue
			}
			s, rk := &upSlot[i], &rankKey[xy[i]]
			best := min(dist[s[0]]<<4|rk[0]|s[0]&1, dist[s[1]]<<4|rk[1]|s[1]&1,
				dist[s[2]]<<4|rk[2]|s[2]&1, dist[s[3]]<<4|rk[3]|s[3]&1)
			dist[2*i] = min(best>>4+1, unreachableDist)
			e := rankPort[xy[i]][best>>1&7] | uint8(best&1)*entryDescends | down[i]<<entryDownShift
			if best>>4 >= unreachableDist {
				e = 0
			}
			row[order[i]] = e
		}
	}
}

// Route implements noc.Routing. It reads only state that rebuilds on fault
// events and writes only m's RouteBits, idempotently, as the contract asks.
func (t *TableRouting) Route(r *noc.Router, m *noc.Message) noc.PortID {
	dc, port := m.DstRouter()
	if dc == r.Coord {
		if !r.LinkUp(port) {
			return noc.RouteUnreachable
		}
		return port
	}
	if !t.degraded {
		return r.DirToward(dc)
	}
	e := t.entry[t.index(dc, r)]
	if m.RouteBits&RouteDown != 0 {
		if p := e >> entryDownShift; p != 0 {
			return noc.PortID(p)
		}
		// Only possible after a rebuild reoriented the edges under the
		// message: restart the climb under the new orientation.
		m.RouteBits &^= RouteDown
	}
	p := e & entryPort
	if p == 0 {
		return noc.RouteUnreachable
	}
	if e&entryDescends != 0 {
		m.RouteBits |= RouteDown
	}
	return noc.PortID(p)
}

// index returns the entry index of router r's hop toward the destination
// router at coordinate dc.
func (t *TableRouting) index(dc noc.Coord, r *noc.Router) int {
	return (dc.Y*t.width+dc.X)*t.n + r.ID()
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
type WestFirstRouting struct{}

// NewWestFirstRouting returns a west-first router for the network. The turn
// model's deadlock-freedom proof assumes an open mesh — wraparound links put
// the forbidden turns back into a cycle — so torus networks are rejected with
// an error (an explicit capability check, not a mid-run panic).
func NewWestFirstRouting(net *noc.Network) (*WestFirstRouting, error) {
	if net.Torus() {
		return nil, fmt.Errorf("fault: west-first routing requires an open mesh, not a torus")
	}
	return &WestFirstRouting{}, nil
}

// Name implements noc.Routing.
func (w *WestFirstRouting) Name() string { return "west-first" }

// Route implements noc.Routing.
func (w *WestFirstRouting) Route(r *noc.Router, m *noc.Message) noc.PortID {
	dc, port := m.DstRouter()
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
	if !r.LinkUp(port) {
		return noc.RouteUnreachable
	}
	return port
}

// ShardSafe implements noc.ShardSafeRouting, a marker the engine ignores.
func (w *WestFirstRouting) ShardSafe() bool { return true }

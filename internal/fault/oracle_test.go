package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlnoc/internal/noc"
)

// oracleMinimal is the healthy routing as a table: per destination router a
// reverse BFS over healthy directed links, each router then taking the
// neighbour one hop closer, tie-broken toward DirToward's port, else the
// first in dirPorts. next[dst*n + at] is the port, -1 at dst or when
// unreachable.
func oracleMinimal(net *noc.Network) []int8 {
	routers := net.Routers()
	n := len(routers)
	next := make([]int8, n*n)
	dist := make([]int, n)
	for dstID, dst := range routers {
		base := dstID * n
		for i := range dist {
			dist[i] = -1
			next[base+i] = -1
		}
		dist[dstID] = 0
		queue := []int{dstID}
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
			next[base+uID] = int8(best)
		}
	}
	return next
}

// oracleUpDown computes the degraded tables the slow, obvious way: BFS levels
// from router 0 orient every healthy link, then per destination a reverse BFS
// over (router, phase) states — phase 0 climbs, phase 1 has committed to
// descending — and a fill pass that picks, per router, the neighbour of
// lowest distance, ties to the X-Y port, else the first in dirPorts. It
// returns the levels and the tables in TableRouting's entry encoding.
func oracleUpDown(net *noc.Network) (level []int32, entry []uint8) {
	routers := net.Routers()
	n := len(routers)
	level = make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := routers[queue[0]]
		queue = queue[1:]
		for _, p := range dirPorts {
			v := healthyEdge(u, p)
			if v == nil || level[v.ID()] >= 0 {
				continue
			}
			level[v.ID()] = level[u.ID()] + 1
			queue = append(queue, v.ID())
		}
	}
	downEdge := func(u, v *noc.Router) bool {
		lu, lv := level[u.ID()], level[v.ID()]
		return lv > lu || (lv == lu && v.ID() > u.ID())
	}

	entry = make([]uint8, n*n)
	dist := make([]int32, 2*n)
	for dstID, dst := range routers {
		if level[dstID] < 0 {
			continue // dst cut off entirely: unreachable from everywhere
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[dstID*2] = 0
		dist[dstID*2+1] = 0
		squeue := []int{dstID * 2, dstID*2 + 1}
		for len(squeue) > 0 {
			s := squeue[0]
			squeue = squeue[1:]
			v, ph := routers[s/2], s%2
			for _, p := range dirPorts {
				u := healthyEdge(v, p)
				if u == nil {
					continue
				}
				// Forward edge u -> v reaches state (v, ph) from (u, 0) when
				// the edge orientation matches ph, and from (u, 1) only when
				// the edge descends.
				vIsDown := downEdge(u, v)
				if (ph == 1) != vIsDown {
					continue
				}
				if s0 := u.ID() * 2; dist[s0] < 0 {
					dist[s0] = dist[s] + 1
					squeue = append(squeue, s0)
				}
				if s1 := u.ID()*2 + 1; vIsDown && dist[s1] < 0 {
					dist[s1] = dist[s] + 1
					squeue = append(squeue, s1)
				}
			}
		}
		for uID, u := range routers {
			if uID == dstID || level[uID] < 0 {
				continue
			}
			xy := u.DirToward(dst.Coord)
			bestUp, bestDown := noc.PortID(0), noc.PortID(0)
			var costUp, costDown int32 = -1, -1
			for _, p := range dirPorts {
				v := healthyEdge(u, p)
				if v == nil {
					continue
				}
				var c int32
				if downEdge(u, v) {
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
			e := uint8(bestUp) | uint8(bestDown)<<entryDownShift
			if bestUp != 0 && downEdge(u, u.Neighbor(bestUp)) {
				e |= entryDescends
			}
			entry[dstID*n+uID] = e
		}
	}
	return level, entry
}

// checkAgainstOracle requires tr's tables to equal the oracle's for the
// network's current link state, byte for byte.
func checkAgainstOracle(t testing.TB, net *noc.Network, tr *TableRouting, what string) {
	t.Helper()
	if !tr.degraded {
		t.Fatalf("%s: a dead link left the routing in healthy mode", what)
	}
	level, entry := oracleUpDown(net)
	if !slices.Equal(level, tr.level) {
		t.Fatalf("%s: levels differ:\n got %v\nwant %v", what, tr.level, level)
	}
	n := len(net.Routers())
	for i := range entry {
		if entry[i] != tr.entry[i] {
			t.Fatalf("%s: entry (dst %d, at %d) = %#x, oracle %#x", what, i/n, i%n, tr.entry[i], entry[i])
		}
	}
}

// probeTo returns a message bound for node nd, its destination resolved by
// queueing it at nd (Node.Inject), for calling a Routing directly. The
// network must not be stepped while probes are queued.
func probeTo(nd *noc.Node) *noc.Message {
	m := &noc.Message{Dst: nd.ID, SizeFlits: 1}
	nd.Inject(m)
	return m
}

// checkGeometry requires a healthy TableRouting to route every router pair
// by DirToward, without a table.
func checkGeometry(t testing.TB, net *noc.Network, tr *TableRouting, what string) {
	t.Helper()
	if tr.degraded {
		t.Fatalf("%s: healthy network routed in degraded mode", what)
	}
	for _, nd := range net.Nodes() {
		m := probeTo(nd)
		for _, r := range net.Routers() {
			want := nd.Port
			if r != nd.Router {
				want = r.DirToward(nd.Router.Coord)
			}
			if got := tr.Route(r, m); got != want {
				t.Fatalf("%s: Route(%v -> node %d) = %v, want %v", what, r, nd.ID, got, want)
			}
		}
	}
}

// TestHealthyRoutingIsGeometry pins the fact the healthy path rests on: on
// every healthy mesh and torus from 2 (torus 3) to 12 routers a side, square
// or not, the minimal table tie-broken toward DirToward is DirToward itself
// for every pair — and TableRouting routes so with no table allocated.
func TestHealthyRoutingIsGeometry(t *testing.T) {
	for _, torusNet := range []bool{false, true} {
		lo := 2
		if torusNet {
			lo = 3
		}
		for w := lo; w <= 12; w++ {
			for h := lo; h <= 12; h++ {
				net, _ := noc.BuildMeshCores(noc.Config{Width: w, Height: h, VCs: 1, BufferCap: 1, Torus: torusNet})
				what := fmt.Sprintf("%dx%d torus=%v", w, h, torusNet)
				routers := net.Routers()
				n := len(routers)
				next := oracleMinimal(net)
				for dstID, dst := range routers {
					for uID, u := range routers {
						if uID == dstID {
							continue
						}
						if want := u.DirToward(dst.Coord); noc.PortID(next[dstID*n+uID]) != want {
							t.Fatalf("%s: minimal table (%d -> %d) = %d, DirToward %v", what, uID, dstID, next[dstID*n+uID], want)
						}
					}
				}
				tr := NewTableRouting(net)
				if tr.entry != nil {
					t.Fatalf("%s: healthy NewTableRouting allocated a table", what)
				}
				checkGeometry(t, net, tr, what)
			}
		}
	}
}

// killDirected takes down the directed link behind each (router, port) pair
// that has a neighbour.
func killDirected(net *noc.Network, kills []Link) {
	for _, k := range kills {
		if net.Routers()[k.Router].Neighbor(k.Port) != nil {
			net.SetLinkDown(k.Router, k.Port, true)
		}
	}
}

// TestTableRoutingMatchesBFS holds the two-sweep rebuild to the BFS oracle on
// randomized kill sets — one-way and two-way, on meshes and tori, dense
// enough to cut regions off — and on the corner cases: an isolated root, a
// cut-off destination, a repair back to full health and a second fault after
// it.
func TestTableRoutingMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		torusNet := trial%2 == 1
		w, h := 2+rng.Intn(9), 2+rng.Intn(9)
		if torusNet {
			w, h = max(w, 3), max(h, 3)
		}
		net, _ := noc.BuildMeshCores(noc.Config{Width: w, Height: h, VCs: 1, BufferCap: 1, Torus: torusNet})
		n := len(net.Routers())
		kills := make([]Link, 1+rng.Intn(n))
		for i := range kills {
			kills[i] = Link{Router: rng.Intn(n), Port: dirPorts[rng.Intn(4)]}
			if rng.Intn(2) == 0 { // two-way
				if v := net.Routers()[kills[i].Router].Neighbor(kills[i].Port); v != nil {
					kills = append(kills, Link{Router: v.ID(), Port: kills[i].Port.Opposite()})
				}
			}
		}
		killDirected(net, kills)
		what := fmt.Sprintf("trial %d: %dx%d torus=%v kills=%v", trial, w, h, torusNet, kills)
		tr := NewTableRouting(net)
		if tr.allHealthy() {
			checkGeometry(t, net, tr, what)
			continue
		}
		checkAgainstOracle(t, net, tr, what)
	}

	// Each degraded rebuild reuses the table: cutting a router off after a
	// fault that left everything reachable, then isolating the root, must
	// leave no stale entry behind, and repairing every link must bring the
	// geometry back.
	for _, torusNet := range []bool{false, true} {
		net, _ := noc.BuildMeshCores(noc.Config{Width: 5, Height: 4, VCs: 1, BufferCap: 1, Torus: torusNet})
		what := fmt.Sprintf("torus=%v", torusNet)
		kills := []Link{{Router: net.RouterAt(3, 1).ID(), Port: noc.PortEast}}
		killDirected(net, kills)
		tr := NewTableRouting(net)
		checkAgainstOracle(t, net, tr, what+" one fault")

		cut := net.RouterAt(2, 2)
		for _, p := range dirPorts {
			if u := cut.Neighbor(p); u != nil {
				kills = append(kills, Link{Router: u.ID(), Port: p.Opposite()})
			}
		}
		killDirected(net, kills)
		tr.Rebuild()
		checkAgainstOracle(t, net, tr, what+" cut-off router")

		for _, p := range dirPorts {
			if net.Routers()[0].Neighbor(p) != nil {
				kills = append(kills, Link{Router: 0, Port: p})
			}
		}
		killDirected(net, kills)
		tr.Rebuild()
		checkAgainstOracle(t, net, tr, what+" isolated root")

		for _, l := range kills {
			net.SetLinkDown(l.Router, l.Port, false)
		}
		tr.Rebuild()
		checkGeometry(t, net, tr, what+" repaired")
	}
}

// FuzzTableRoutingMatchesBFS holds the two-sweep rebuild to the BFS oracle on
// an arbitrary small mesh or torus with an arbitrary list of directed link
// kills: each kill byte names a router and a direction port.
func FuzzTableRoutingMatchesBFS(f *testing.F) {
	f.Add(uint8(4), uint8(4), false, []byte{5, 9})
	f.Add(uint8(5), uint8(3), true, []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, w, h uint8, torusNet bool, kills []byte) {
		lo := 1
		if torusNet {
			lo = 3
		}
		width, height := lo+int(w)%(10-lo), lo+int(h)%(10-lo)
		net, _ := noc.BuildMeshCores(noc.Config{Width: width, Height: height, VCs: 1, BufferCap: 1, Torus: torusNet})
		n := len(net.Routers())
		links := make([]Link, len(kills))
		for i, b := range kills {
			k := int(b) % (4 * n)
			links[i] = Link{Router: k / 4, Port: dirPorts[k%4]}
		}
		killDirected(net, links)
		tr := NewTableRouting(net)
		what := fmt.Sprintf("%dx%d torus=%v kills=%v", width, height, torusNet, links)
		if tr.allHealthy() {
			checkGeometry(t, net, tr, what)
			return
		}
		checkAgainstOracle(t, net, tr, what)
	})
}

package fault

import (
	"math/rand"
	"testing"

	"mlnoc/internal/noc"
)

// The references below are the in-tree routings as they were before a
// message carried its destination: each hop looks m.Dst up through
// net.Node. This file is the only place that lookup survives.

func refXY(net *noc.Network, r *noc.Router, m *noc.Message) noc.PortID {
	dst := net.Nodes()[m.Dst]
	if dst.Router == r {
		return dst.Port
	}
	return r.DirToward(dst.Router.Coord)
}

func refTable(t *TableRouting, r *noc.Router, m *noc.Message) noc.PortID {
	dst := t.net.Nodes()[m.Dst]
	if dst.Router == r {
		if !r.LinkUp(dst.Port) {
			return noc.RouteUnreachable
		}
		return dst.Port
	}
	if !t.degraded {
		return r.DirToward(dst.Router.Coord)
	}
	e := t.entry[dst.Router.ID()*t.n+r.ID()]
	if m.RouteBits&RouteDown != 0 {
		if p := e >> entryDownShift; p != 0 {
			return noc.PortID(p)
		}
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

func refWestFirst(net *noc.Network, r *noc.Router, m *noc.Message) noc.PortID {
	dst := net.Nodes()[m.Dst]
	dx, dy := dst.Router.Coord.X-r.Coord.X, dst.Router.Coord.Y-r.Coord.Y
	up := func(p noc.PortID) bool { return r.LinkUp(p) && r.Neighbor(p) != nil }
	switch {
	case dx < 0 && up(noc.PortWest):
		return noc.PortWest
	case dx < 0:
		return noc.RouteUnreachable
	case dx > 0 && up(noc.PortEast):
		return noc.PortEast
	case dx > 0 && dy > 0 && up(noc.PortSouth):
		return noc.PortSouth
	case dx > 0 && dy < 0 && up(noc.PortNorth):
		return noc.PortNorth
	case dx > 0:
		return noc.RouteUnreachable
	case dy > 0 && up(noc.PortSouth):
		return noc.PortSouth
	case dy < 0 && up(noc.PortNorth):
		return noc.PortNorth
	case dy != 0 || !r.LinkUp(dst.Port):
		return noc.RouteUnreachable
	}
	return dst.Port
}

// TestRoutingsMatchLookedUpDestination holds every in-tree routing, reading
// the destination Node.Inject resolved, to its reference looking m.Dst up per
// hop: on random meshes and tori with core and memory endpoints and random
// directed link kills (attach links included), for every (router,
// destination, phase bit), the verdict and the RouteBits it leaves must be
// equal.
func TestRoutingsMatchLookedUpDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	degraded, unreachable := 0, 0
	for trial := 0; trial < 60; trial++ {
		torusNet := trial%3 == 2
		w, h := 2+rng.Intn(8), 2+rng.Intn(8)
		if torusNet {
			w, h = max(w, 3), max(h, 3)
		}
		net, nodes := noc.BuildMeshCores(noc.Config{Width: w, Height: h, VCs: 1, BufferCap: 1, Torus: torusNet})
		routers := net.Routers()
		for _, r := range routers {
			if rng.Intn(3) == 0 { // a second endpoint, so attach ports differ
				nodes = append(nodes, net.AttachNode(r.Coord.X, r.Coord.Y, noc.PortMem, noc.DstMemory, "mem"))
			}
		}
		for k := rng.Intn(1 + len(routers)/2); k > 0; k-- {
			r := routers[rng.Intn(len(routers))]
			if p := noc.PortID(rng.Intn(noc.MaxPorts)); r.HasPort(p) {
				net.SetLinkDown(r.ID(), p, true)
			}
		}
		type routing struct {
			name     string
			got, ref func(*noc.Router, *noc.Message) noc.PortID
		}
		tr := NewTableRouting(net)
		routings := []routing{
			{"xy", noc.XYRouting{}.Route, func(r *noc.Router, m *noc.Message) noc.PortID { return refXY(net, r, m) }},
			{"table", tr.Route, func(r *noc.Router, m *noc.Message) noc.PortID { return refTable(tr, r, m) }},
		}
		if wf, err := NewWestFirstRouting(net); err == nil {
			routings = append(routings, routing{"west-first", wf.Route,
				func(r *noc.Router, m *noc.Message) noc.PortID { return refWestFirst(net, r, m) }})
		}
		for _, dst := range nodes {
			src := nodes[rng.Intn(len(nodes))]
			probe := &noc.Message{Dst: dst.ID, SizeFlits: 1}
			src.Inject(probe)
			for _, r := range routers {
				for _, bits := range []uint8{0, RouteDown} {
					for _, rt := range routings {
						got, ref := *probe, *probe
						got.RouteBits, ref.RouteBits = bits, bits
						g, want := rt.got(r, &got), rt.ref(r, &ref)
						if g != want || got.RouteBits != ref.RouteBits {
							t.Fatalf("trial %d %dx%d torus=%v %s: %s at %s with bits %d: %s bits %d, reference %s bits %d",
								trial, w, h, torusNet, rt.name, probe, r, bits, g, got.RouteBits, want, ref.RouteBits)
						}
						if g == noc.RouteUnreachable {
							unreachable++
						}
					}
				}
			}
		}
		if tr.degraded {
			degraded++
		}
	}
	if degraded == 0 || unreachable == 0 {
		t.Fatalf("vacuous: %d degraded tables, %d unreachable verdicts", degraded, unreachable)
	}
}

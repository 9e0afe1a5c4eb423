package flit

import (
	"fmt"

	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
)

// Config describes a flit-level mesh.
type Config struct {
	// Width and Height are the mesh dimensions; one endpoint per router.
	Width, Height int
	// VCs is the number of virtual channels (message classes) per port.
	VCs int
	// BufFlits is the per-VC input buffer capacity in flits. The default of
	// 4 cannot hold a 5-flit data packet, so long packets genuinely span
	// routers (wormhole).
	BufFlits int
}

func (c *Config) applyDefaults() {
	if c.VCs <= 0 {
		c.VCs = 1
	}
	if c.BufFlits <= 0 {
		c.BufFlits = 4
	}
}

// vcIn is one input virtual channel: a flit FIFO plus the switching state of
// the packet currently draining from its head.
type vcIn struct {
	q []Flit
	// routeValid marks that the packet at the queue head has computed its
	// route and (once granted) owns its output VC.
	routeValid bool
	route      noc.PortID
	vcOwned    bool // this packet holds outVCOwner[route][vc]
}

// router is the flit-level state of one noc router: its ID, coordinate,
// ports and neighbours come from the embedded *noc.Router.
type router struct {
	*noc.Router
	in [noc.MaxPorts][]vcIn
	// outOwner[p][vc] is the packet currently streaming through output VC
	// (p, vc), nil when free.
	outOwner [noc.MaxPorts][]*noc.Message
	// credits[p][vc] counts free flit slots in the downstream buffer.
	credits [noc.MaxPorts][]int
}

type node struct {
	queue []*noc.Message
	cur   *noc.Message
	seq   int
}

type arrival struct {
	r    *router
	port noc.PortID
	vc   int
	f    Flit
}

type creditReturn struct {
	r    *router
	port noc.PortID
	vc   int
}

// Stats aggregates flit-level measurements.
type Stats struct {
	Injected   int64 // packets handed to Inject
	Delivered  int64 // packets fully ejected at their destination
	Latency    stats.Accumulator
	FlitsMoved int64
}

// Engine is a flit-level mesh simulation.
type Engine struct {
	cfg    Config
	policy noc.Policy
	// ctx is the arbitration site handed to policy; cands is switch
	// allocation's candidate scratch.
	ctx     noc.ArbContext
	cands   []noc.Candidate
	routers []*router
	nodes   []*node
	cycle   int64

	nextArrivals []arrival
	nextCredits  []creditReturn

	stats  Stats
	nextID uint64

	// flitsReceived tracks per-packet delivered flit counts (ordering and
	// completeness checks).
	flitsReceived map[uint64]int
}

// New builds a flit-level mesh on the topology of noc.BuildMeshCores and
// arbitrates switch allocation through policy, the same noc.Policy objects
// the message-level engine runs. The noc.Network behind the policy's
// ArbContext only supplies the mesh: it carries no traffic, so a policy that
// reads its buffers or statistics (core.Agent, for one) sees an empty network
// and is not supported here.
func New(cfg Config, policy noc.Policy) *Engine {
	cfg.applyDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("flit: mesh dimensions must be positive")
	}
	if policy == nil {
		panic("flit: engine needs a policy")
	}
	net, _ := noc.BuildMeshCores(noc.Config{Width: cfg.Width, Height: cfg.Height, VCs: cfg.VCs})
	e := &Engine{cfg: cfg, policy: policy, ctx: noc.ArbContext{Net: net}, flitsReceived: make(map[uint64]int)}
	for _, nr := range net.Routers() {
		r := &router{Router: nr}
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			if !r.HasPort(p) {
				continue
			}
			r.in[p] = make([]vcIn, cfg.VCs)
			r.outOwner[p] = make([]*noc.Message, cfg.VCs)
			r.credits[p] = make([]int, cfg.VCs)
			for vc := 0; vc < cfg.VCs; vc++ {
				// Ejection (core port) is never credit-limited.
				if p == noc.PortCore {
					r.credits[p][vc] = 1 << 30
				} else {
					r.credits[p][vc] = cfg.BufFlits
				}
			}
		}
		e.routers = append(e.routers, r)
		e.nodes = append(e.nodes, &node{})
	}
	return e
}

// Stats returns the accumulated statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// NumNodes returns the endpoint count (one per router).
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Inject queues a packet of the given flit count from node src to node dst.
func (e *Engine) Inject(src, dst int, class noc.Class, flits int) {
	if flits <= 0 {
		panic("flit: packet needs at least one flit")
	}
	if int(class) >= e.cfg.VCs {
		panic("flit: class out of VC range")
	}
	if src == dst {
		panic("flit: self-send not supported at flit level")
	}
	e.nextID++
	m := &noc.Message{
		ID:        e.nextID,
		Src:       noc.NodeID(src),
		Dst:       noc.NodeID(dst),
		Class:     class,
		SizeFlits: int32(flits),
		GenCycle:  e.cycle,
		Distance:  int32(e.routers[src].Coord.Manhattan(e.routers[dst].Coord)),
	}
	e.nodes[src].queue = append(e.nodes[src].queue, m)
	e.stats.Injected++
}

// Step advances one cycle: land scheduled arrivals and credits, inject from
// nodes, then run route computation / VC allocation / switch allocation and
// launch flits.
func (e *Engine) Step() {
	e.cycle++

	// Land flits and credits scheduled during the previous cycle.
	arrivals := e.nextArrivals
	e.nextArrivals = e.nextArrivals[len(e.nextArrivals):]
	for _, a := range arrivals {
		buf := &a.r.in[a.port][a.vc]
		if len(buf.q) >= e.cfg.BufFlits {
			panic("flit: buffer overflow — credit protocol violated")
		}
		if a.f.Kind.IsHead() {
			a.f.Pkt.ArrivalCycle = e.cycle
		}
		buf.q = append(buf.q, a.f)
	}
	credits := e.nextCredits
	e.nextCredits = e.nextCredits[len(e.nextCredits):]
	for _, c := range credits {
		c.r.credits[c.port][c.vc]++
	}

	// Injection: each node feeds at most one flit per cycle into its local
	// input buffer.
	for i, n := range e.nodes {
		r := e.routers[i]
		if n.cur == nil {
			if len(n.queue) == 0 {
				continue
			}
			// Start the next packet only if its VC buffer can take the head.
			m := n.queue[0]
			if len(r.in[noc.PortCore][m.Class].q) >= e.cfg.BufFlits {
				continue
			}
			n.cur, n.seq = m, 0
			copy(n.queue, n.queue[1:])
			n.queue = n.queue[:len(n.queue)-1]
			m.InjectCycle = e.cycle
			m.HopCount = 0
		}
		m := n.cur
		buf := &r.in[noc.PortCore][m.Class]
		if len(buf.q) >= e.cfg.BufFlits {
			continue
		}
		f := Flit{Seq: n.seq, Pkt: m}
		switch {
		case m.SizeFlits == 1:
			f.Kind = HeadTail
		case n.seq == 0:
			f.Kind = Head
		case n.seq == int(m.SizeFlits)-1:
			f.Kind = Tail
		default:
			f.Kind = Body
		}
		if f.Kind.IsHead() {
			m.ArrivalCycle = e.cycle
		}
		buf.q = append(buf.q, f)
		n.seq++
		if n.seq == int(m.SizeFlits) {
			n.cur = nil
		}
	}

	// Route computation and VC allocation for packets at buffer heads.
	for _, r := range e.routers {
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			for vc := range r.in[p] {
				buf := &r.in[p][vc]
				if len(buf.q) == 0 {
					continue
				}
				front := buf.q[0]
				if front.Kind.IsHead() && !buf.routeValid {
					// X-Y routing; every endpoint sits on its router's core port.
					buf.route = noc.PortCore
					if dc := e.routers[front.Pkt.Dst].Coord; dc != r.Coord {
						buf.route = r.DirToward(dc)
					}
					buf.routeValid = true
					buf.vcOwned = false
				}
				if buf.routeValid && !buf.vcOwned {
					// VC allocation: acquire ownership of (route, class).
					owner := r.outOwner[buf.route][vc]
					if owner == nil {
						r.outOwner[buf.route][vc] = front.Pkt
						buf.vcOwned = true
					} else if owner == front.Pkt {
						buf.vcOwned = true
					}
				}
			}
		}
	}

	// Switch allocation: one flit per output port, one per input port.
	e.ctx.Cycle = e.cycle
	for _, r := range e.routers {
		var inUsed [noc.MaxPorts]bool
		for out := noc.PortID(0); out < noc.MaxPorts; out++ {
			if !r.HasPort(out) {
				continue
			}
			cands := e.cands[:0]
			for p := noc.PortID(0); p < noc.MaxPorts; p++ {
				if inUsed[p] {
					continue
				}
				for vc := range r.in[p] {
					buf := &r.in[p][vc]
					if len(buf.q) == 0 || !buf.routeValid || !buf.vcOwned || buf.route != out {
						continue
					}
					if r.credits[out][vc] <= 0 {
						continue
					}
					cands = append(cands, noc.Candidate{Port: p, VC: vc, Msg: buf.q[0].Pkt})
				}
			}
			e.cands = cands
			if len(cands) == 0 {
				continue
			}
			choice := 0
			if len(cands) > 1 {
				e.ctx.Router, e.ctx.Out = r.Router, out
				choice = e.policy.Select(&e.ctx, cands)
				if choice < 0 || choice >= len(cands) {
					panic(fmt.Sprintf("flit: policy %s returned %d of %d", e.policy.Name(), choice, len(cands)))
				}
			}
			c := cands[choice]
			e.launch(r, c.Port, c.VC, out)
			inUsed[c.Port] = true
		}
	}
}

// launch moves the head flit of (in, vc) through output out.
func (e *Engine) launch(r *router, in noc.PortID, vc int, out noc.PortID) {
	buf := &r.in[in][vc]
	f := buf.q[0]
	copy(buf.q, buf.q[1:])
	buf.q = buf.q[:len(buf.q)-1]
	e.stats.FlitsMoved++

	// Return a credit upstream for the freed buffer slot (not for the
	// injection buffer, which the local node reads directly).
	if in.IsDirection() {
		up := e.routers[r.Neighbor(in).ID()]
		e.nextCredits = append(e.nextCredits, creditReturn{r: up, port: in.Opposite(), vc: vc})
	}

	if f.Kind.IsTail() {
		buf.routeValid = false
		buf.vcOwned = false
		r.outOwner[out][vc] = nil
	}

	if out == noc.PortCore {
		// Ejection: flits leave the network; the packet completes when its
		// tail ejects.
		e.flitsReceived[f.Pkt.ID]++
		if f.Kind.IsTail() {
			if got := e.flitsReceived[f.Pkt.ID]; got != int(f.Pkt.SizeFlits) {
				panic(fmt.Sprintf("flit: packet %d ejected %d of %d flits", f.Pkt.ID, got, f.Pkt.SizeFlits))
			}
			delete(e.flitsReceived, f.Pkt.ID)
			e.stats.Delivered++
			e.stats.Latency.Add(float64(e.cycle - f.Pkt.GenCycle))
		}
		return
	}

	if f.Kind.IsHead() {
		f.Pkt.HopCount++
	}
	r.credits[out][vc]--
	e.nextArrivals = append(e.nextArrivals, arrival{
		r: e.routers[r.Neighbor(out).ID()], port: out.Opposite(), vc: vc, f: f,
	})
}

// Quiescent reports whether no packets remain anywhere in the system.
func (e *Engine) Quiescent() bool {
	if len(e.nextArrivals) > 0 {
		return false
	}
	for _, n := range e.nodes {
		if n.cur != nil || len(n.queue) > 0 {
			return false
		}
	}
	for _, r := range e.routers {
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			for vc := range r.in[p] {
				if len(r.in[p][vc].q) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// Drain steps until quiescent or maxCycles elapse, reporting success.
func (e *Engine) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if e.Quiescent() {
			return true
		}
		e.Step()
	}
	return e.Quiescent()
}

package noc

import "fmt"

// Buffer is one virtual-channel input FIFO of a router port: its n queued
// messages linked from head to tail through Message.next, the link the
// network's message freelist also threads (a message is in at most one of
// the two). The buffer keeps no back-pointer: its router, port and VC are
// known to every caller (a message's VC is its Class), and its capacity is
// the network's.
type Buffer struct {
	head, tail *Message
	n          int32
	reserved   int32 // slots reserved by in-flight granted messages
	lastArr    int64 // cycle of the most recent arrival, -1 if none
}

// Len returns the number of messages queued in the buffer.
func (b *Buffer) Len() int { return int(b.n) }

// Head returns the message at the head of the buffer, or nil if empty.
func (b *Buffer) Head() *Message { return b.head }

// At returns the i-th queued message (0 is the head), walking the queue.
func (b *Buffer) At(i int) *Message {
	if uint(i) >= uint(b.n) {
		panic(fmt.Sprintf("noc: Buffer.At(%d) of %d queued messages", i, b.n))
	}
	m := b.head
	for ; i > 0; i-- {
		m = m.next
	}
	return m
}

// free reports whether the buffer can accept one more message, counting
// reservations made for messages currently in flight toward it.
func (b *Buffer) free(capacity int32) bool { return b.n+b.reserved < capacity }

// bufBit returns the bit of input buffer in[p][vc] in r's arbitration masks.
func (r *Router) bufBit(p PortID, vc int) uint64 {
	return 1 << (uint(p)*uint(r.net.cfg.VCs) + uint(vc))
}

// push appends m to input buffer in[p][vc] of r, stamping its arrival, and
// keeps r's arbitration bits and activity current. m must be in no list.
func (r *Router) push(p PortID, vc int, now int64, m *Message) {
	b := &r.in[p][vc]
	if b.lastArr >= 0 {
		m.ArrivalGap = now - b.lastArr
	} else {
		m.ArrivalGap = 0
	}
	b.lastArr = now
	m.ArrivalCycle = now
	if b.tail == nil {
		b.head = m
	} else {
		b.tail.next = m
	}
	b.tail = m
	b.n++
	bit := r.bufBit(p, vc)
	if b.n == 1 {
		if r.occ == 0 {
			r.net.activateRouter(r)
		}
		r.occ |= bit
		r.stale |= bit // m is the new head and has no route yet
	}
	if !b.free(r.net.bufCap) {
		r.full |= bit
	}
}

// pop unlinks and returns the head of input buffer in[p][vc] of r, which
// must be non-empty.
func (r *Router) pop(p PortID, vc int) *Message {
	b := &r.in[p][vc]
	m := b.head
	if b.head = m.next; b.head == nil {
		b.tail = nil
	}
	m.next = nil
	b.n--
	bit := r.bufBit(p, vc)
	if r.stale&bit == 0 {
		r.unwant(m.route, bit)
	}
	if b.n == 0 {
		r.stale &^= bit
		r.occ &^= bit
		if r.occ == 0 {
			r.net.deactivateRouter(r)
		}
	} else {
		r.stale |= bit // the successor is the new head
	}
	if b.free(r.net.bufCap) {
		r.full &^= bit
	}
	return m
}

// reserve and unreserve claim and release one slot of input buffer
// in[p][vc] for a message in flight toward it, keeping r's full mask current.
func (r *Router) reserve(p PortID, vc int) {
	b := &r.in[p][vc]
	if b.reserved++; !b.free(r.net.bufCap) {
		r.full |= r.bufBit(p, vc)
	}
}

func (r *Router) unreserve(p PortID, vc int) {
	b := &r.in[p][vc]
	if b.reserved--; b.free(r.net.bufCap) {
		r.full &^= r.bufBit(p, vc)
	}
}

// filter keeps, in order, the messages of input buffer in[p][vc] that keep
// accepts, unlinking the others, and re-derives the buffer's arbitration
// bits: any message may now be the head, so a non-empty buffer is marked
// stale. keep may have side effects but must not touch the buffer.
func (r *Router) filter(p PortID, vc int, keep func(*Message) bool) {
	b := &r.in[p][vc]
	bit := r.bufBit(p, vc)
	was := r.occ
	if was&bit != 0 && r.stale&bit == 0 {
		r.unwant(b.head.route, bit)
	}
	var head, tail *Message
	k := int32(0)
	for m := b.head; m != nil; {
		next := m.next
		m.next = nil
		if keep(m) {
			if tail == nil {
				head = m
			} else {
				tail.next = m
			}
			tail = m
			k++
		}
		m = next
	}
	b.head, b.tail, b.n = head, tail, k
	r.occ &^= bit
	r.stale &^= bit
	r.full &^= bit
	if k != 0 {
		r.occ |= bit
		r.stale |= bit
	}
	if !b.free(r.net.bufCap) {
		r.full |= bit
	}
	if was == 0 && r.occ != 0 {
		r.net.activateRouter(r)
	} else if was != 0 && r.occ == 0 {
		r.net.deactivateRouter(r)
	}
}

// Router is one mesh router. Each port has one input buffer per virtual
// channel (message class). Output ports are arbitrated independently, one
// grant per cycle, and stay busy for the granted message's flit count.
type Router struct {
	id    int
	Coord Coord

	net *Network

	// peers[p] is what port p connects to: a neighboring router, an attached
	// node, or nothing.
	peerRouter [MaxPorts]*Router
	peerNode   [MaxPorts]*Node

	// in[p][vc] is the input buffer of port p, virtual channel vc, stored by
	// value. Ports without a peer have nil buffer slices.
	in [MaxPorts][]Buffer

	// outBusyUntil[p] is the first cycle at which output port p is free.
	outBusyUntil [MaxPorts]int64

	// inGrantedAt[p] is the last cycle input port p forwarded a message, or
	// -1; ForwardedThisCycle reads it (obs counts blocked cycles with it).
	// The one-grant-per-input-port rule is enforced per cycle by granted in
	// arbitrateRouter and usedIn in matchAndApply, not by this record.
	inGrantedAt [MaxPorts]int64

	// linkDown[p] marks the outgoing link at port p as failed: the output
	// accepts no grants until the link is restored (Network.SetLinkDown).
	linkDown [MaxPorts]bool

	// Arbitration state, one bit p*VCs+vc per input buffer in[p][vc] (hence
	// MaxVCs), kept current by push/pop/reserve/unreserve/filter above and
	// by routeHeads (network.go), so that arbitration reads facts instead of
	// re-deriving them per head per cycle:
	//
	//   occ      the buffer is non-empty
	//   stale    it is non-empty and its head has no cached route yet
	//   want[o]  its head's cached route (Message.route) is output port o
	//            (never also stale)
	//   full     it cannot take another message (len + reserved >= cap)
	//
	// and, one bit per output port, outs: bit o is set iff want[o] != 0, the
	// outputs arbitration visits.
	occ, stale, full uint64
	want             [MaxPorts]uint64
	outs             uint8

	// actWord/actMask locate this router's bit in the network-level activity
	// bitmap (actWord = id/64, actMask = 1<<(id%64)), precomputed so the occ
	// 0<->nonzero transitions in push/pop cost two loads and an OR
	// instead of two shifts.
	actWord int
	actMask uint64

	nPorts int // number of connected ports (for String)
}

// unwant clears the buffer bit from want[out], and out from outs when no
// other head requests it.
func (r *Router) unwant(out int8, bit uint64) {
	if r.want[out] &^= bit; r.want[out] == 0 {
		r.outs &^= 1 << out
	}
}

// ID returns the router's dense index within its network.
func (r *Router) ID() int { return r.id }

// HasPort reports whether port p is connected (to a neighbor router or to an
// attached node).
func (r *Router) HasPort(p PortID) bool {
	return r.peerRouter[p] != nil || r.peerNode[p] != nil
}

// Neighbor returns the router connected at direction port p, or nil.
func (r *Router) Neighbor(p PortID) *Router { return r.peerRouter[p] }

// Buffer returns the input buffer for (port, vc), or nil if the port is not
// connected.
func (r *Router) Buffer(p PortID, vc int) *Buffer {
	if r.in[p] == nil {
		return nil
	}
	return &r.in[p][vc]
}

// NumVCs returns the number of virtual channels per port.
func (r *Router) NumVCs() int { return r.net.cfg.VCs }

// ForwardedThisCycle reports whether input port p forwarded a message during
// the given cycle. After arbitration (e.g. inside an OnCycle hook), a queued
// head on a port that did not forward was blocked for the cycle.
func (r *Router) ForwardedThisCycle(p PortID, now int64) bool {
	return r.inGrantedAt[p] == now
}

// LinkUp reports whether the outgoing link at port p is healthy. Ports never
// taken down by Network.SetLinkDown are always up.
func (r *Router) LinkUp(p PortID) bool { return !r.linkDown[p] }

// Route returns the output port the installed routing algorithm picks for m
// at this router, or RouteUnreachable when no healthy path exists. Without
// an installed Routing it is dimension-ordered X-Y routing.
func (r *Router) Route(m *Message) PortID {
	if rt := r.net.routing; rt != nil {
		return rt.Route(r, m)
	}
	return r.XYPort(m)
}

// XYPort returns the dimension-ordered X-Y output port for m at this router:
// correct X first, then Y, then the destination node's attach port. It is
// the default routing function and the reference fault-aware routers deviate
// from only around dead links (the engine counts such deviations as
// reroutes). On a torus each dimension takes the shorter way around its ring
// (see DirToward), so it stays a pure function of (router, destination).
func (r *Router) XYPort(m *Message) PortID {
	dc, port := m.DstRouter()
	if dc == r.Coord {
		return port
	}
	return r.DirToward(dc)
}

// DirToward returns the dimension-ordered routing direction from r toward
// router coordinate dc: correct X first, then Y. On a mesh it is the plain
// X-Y comparison; on a torus each dimension takes the shorter way around its
// ring, with the tie at exactly half an even ring broken deterministically
// toward east/south. dc must differ from r.Coord.
func (r *Router) DirToward(dc Coord) PortID {
	cfg := &r.net.cfg
	dx, dy := dc.X-r.Coord.X, dc.Y-r.Coord.Y
	if cfg.Torus {
		dx, dy = ringWay(dx, cfg.Width), ringWay(dy, cfg.Height)
	}
	// Which way a head turns is a coin toss to the branch predictor and this
	// runs once per head per hop, so pick the port by arithmetic: d is dx if
	// non-zero, else dy; the port pairs are (north, south) and (west, east),
	// the second of each pair being the positive direction.
	nz := (dx | -dx) >> 63 // -1 if dx != 0, else 0
	d := dx&nz | dy&^nz
	if d == 0 {
		panic("noc: DirToward called with the router's own coordinate")
	}
	return PortNorth + PortID(nz&2) + PortID(uint(-d)>>63)
}

// ringWay turns the offset d between two positions on a ring of n slots into
// signed steps the shorter way around: positive forward (east/south), with
// the tie at exactly half the ring going forward.
func ringWay(d, n int) int {
	if d < 0 {
		d += n
	}
	if 2*d <= n {
		return d
	}
	return d - n
}

// String implements fmt.Stringer.
func (r *Router) String() string {
	return fmt.Sprintf("router#%d%s ports=%d", r.id, r.Coord, r.nPorts)
}

package noc

import "fmt"

// PortID identifies a router port. Ports double as inputs and outputs: port p
// receives messages from its peer and transmits messages to its peer.
//
// The fixed layout mirrors the paper's heatmap column ordering (Fig. 7):
// core, memory, north, south, west, east. Simple meshes only use PortCore plus
// the four direction ports.
type PortID int

// Router port indices.
const (
	PortCore PortID = iota // primary local endpoint
	PortMem                // secondary local endpoint ("memory" in the paper)
	PortNorth
	PortSouth
	PortWest
	PortEast

	// MaxPorts is the maximum number of ports on any router; state vectors
	// are padded to this width (Section 4.4 of the paper).
	MaxPorts = 6

	// MaxVCs is the most virtual channels a network may have: a router keeps
	// one bit per (port, VC) input buffer in 64-bit masks. New panics past it.
	MaxVCs = 64 / MaxPorts
)

// String implements fmt.Stringer.
func (p PortID) String() string {
	switch p {
	case PortCore:
		return "core"
	case PortMem:
		return "mem"
	case PortNorth:
		return "north"
	case PortSouth:
		return "south"
	case PortWest:
		return "west"
	case PortEast:
		return "east"
	}
	return fmt.Sprintf("port(%d)", int(p))
}

// IsDirection reports whether p is one of the four mesh direction ports.
func (p PortID) IsDirection() bool { return p >= PortNorth && p <= PortEast }

// Opposite returns the direction port facing p (north<->south, west<->east).
// It panics for non-direction ports. The pairing is purely local to a link and
// holds on torus wraparound links too: the east port of the last column feeds
// the west port of column zero, exactly as on an interior link.
func (p PortID) Opposite() PortID {
	if !p.IsDirection() {
		panic("noc: Opposite of non-direction port " + p.String())
	}
	// The pairs are (north, south) and (west, east), each starting at an
	// even port: flipping the low bit turns a port around without a branch
	// on which port it is.
	return p ^ 1
}

// Coord is a router coordinate in the mesh. X grows eastward (columns), Y
// grows southward (rows); router (0,0) is the north-west corner.
type Coord struct{ X, Y int }

// Manhattan returns the Manhattan distance between two coordinates.
func (c Coord) Manhattan(o Coord) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ringDist returns the distance between positions a and b on a ring of n
// slots: the shorter of the two ways around.
func ringDist(a, b, n int) int { return abs(ringWay(b-a, n)) }

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Node is an endpoint attached to one router port: it injects messages into
// the network and consumes ("ejects") messages addressed to it.
type Node struct {
	ID     NodeID
	Kind   DstType // how this node is classified as a destination
	Label  string  // human-readable role, e.g. "CU/L1D", "Dir", "CPU"
	Router *Router
	Port   PortID

	net *Network

	// Sink, if non-nil, is invoked for every message delivered to this node.
	// It runs inside Network.Step; it may inject new messages but must not
	// call Step.
	Sink func(now int64, m *Message)

	// The injection queue: the qLen messages waiting to enter the network,
	// linked from qHead to qTail through Message.next (a queued message is in
	// no other list) and drained one per cycle from the head.
	qHead, qTail *Message
	qLen         int
}

// Inject queues a message for injection at this node. The message enters the
// node's router when the local input buffer has space; one message enters per
// cycle. Dst and SizeFlits must be set by the caller; Inject sets Src and
// GenCycle, and resolves Dst once into DstKind, Distance and the destination
// every routing reads (Message.DstRouter). It panics on a Dst that names no
// attached node. m must be in no list.
func (n *Node) Inject(m *Message) {
	if m.SizeFlits <= 0 {
		panic("noc: message must have at least one flit")
	}
	m.Src = n.ID
	if uint(m.Dst) >= uint(len(n.net.nodes)) {
		panic(fmt.Sprintf("noc: %s from %s names unknown destination node %d", m, n, m.Dst))
	}
	dst := n.net.nodes[m.Dst]
	dr := dst.Router
	m.dstX, m.dstY, m.dstPort = int16(dr.Coord.X), int16(dr.Coord.Y), int8(dst.Port)
	m.DstKind = dst.Kind
	m.Distance = int32(n.net.Distance(n.Router.Coord, dr.Coord))
	m.GenCycle = n.net.cycle
	if n.qTail == nil {
		n.qHead = m
		n.net.activateNode(n.ID) // empty -> non-empty
	} else {
		n.qTail.next = m
	}
	n.qTail = m
	n.qLen++
	n.net.pendingInj++
}

// Network returns the network this node is attached to. Traffic generators
// use it to reach the message freelist (Network.AllocMessage).
func (n *Node) Network() *Network { return n.net }

// PendingInjections returns the number of messages queued at the node that
// have not yet entered the network.
func (n *Node) PendingInjections() int { return n.qLen }

// dequeue unlinks the head of the injection queue, which must be non-empty.
func (n *Node) dequeue() {
	m := n.qHead
	if n.qHead = m.next; n.qHead == nil {
		n.qTail = nil
		n.net.deactivateNode(n.ID) // non-empty -> empty
	}
	m.next = nil
	n.qLen--
	n.net.pendingInj--
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("node#%d %s@%s.%s", n.ID, n.Label, n.Router.Coord, n.Port)
}

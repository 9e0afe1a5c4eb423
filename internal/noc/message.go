// Package noc implements a cycle-driven, message-granularity network-on-chip
// simulator: 2D-mesh topologies, routers with per-port virtual-channel input
// buffers and credit-based backpressure, dimension-ordered (X-Y) routing,
// multi-flit serialization, and a pluggable output-port arbitration policy.
//
// The simulator models the structures that NoC arbitration interacts with —
// input-buffer queueing, output-port contention, multi-flit link occupancy and
// backpressure — at the same granularity as the arbiters in the HPCA 2020
// paper "Experiences with ML-Driven Design: A NoC Case Study": one arbitration
// decision per output port per cycle, selecting among the head messages of the
// competing input buffers (Algorithm 1 of the paper).
package noc

import "fmt"

// MsgType is the protocol-level type of a message. The paper's Table 2 uses
// three one-hot-encoded types: request, response and coherence.
type MsgType uint8

// Message types.
const (
	TypeRequest MsgType = iota
	TypeResponse
	TypeCoherence
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeRequest:
		return "request"
	case TypeResponse:
		return "response"
	case TypeCoherence:
		return "coherence"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// DstType classifies the destination node of a message. The paper's Table 2
// uses three one-hot-encoded destination types: core, cache and memory.
type DstType uint8

// Destination node types.
const (
	DstCore DstType = iota
	DstCache
	DstMemory
)

// String implements fmt.Stringer.
func (t DstType) String() string {
	switch t {
	case DstCore:
		return "core"
	case DstCache:
		return "cache"
	case DstMemory:
		return "memory"
	}
	return fmt.Sprintf("DstType(%d)", uint8(t))
}

// Class identifies a message class. Each class travels in its own virtual
// channel; the APU system of the paper uses seven classes (Section 4.1).
type Class uint8

// NodeID identifies an endpoint (core, cache, directory, ...) attached to a
// router port.
type NodeID int

// Message is a network message. The simulator moves whole messages; a message
// of SizeFlits flits occupies its granted output port for SizeFlits cycles
// (serialization latency), which is the effect arbitration policies contend
// with.
//
// Fields marked "dynamic" are updated by the simulator as the message moves.
// The layout is twelve words, 96 bytes, the 96-byte size class: the narrow
// fields pair up in the words between the identifiers and the cycle stamps.
type Message struct {
	ID    uint64
	Src   NodeID
	Dst   NodeID
	Class Class
	Type  MsgType
	// DstKind is the type of the destination node, used as an arbitration
	// feature (Table 2 "Destination type"). Node.Inject sets it.
	DstKind DstType

	// dstPort, dstX and dstY are the destination node's attach port and
	// router coordinate, resolved once by Node.Inject (see DstRouter). They
	// fill the word after DstKind.
	dstPort    int8
	dstX, dstY int16

	SizeFlits int32

	// RouteBits is per-message scratch state owned by the active Routing
	// (e.g. the up*/down* phase bit of the fault-aware router); the engine
	// never touches it. Route must write it idempotently per (router, tables):
	// a head is routed once, not once per cycle.
	RouteBits uint8

	// pooled marks messages obtained from Network.AllocMessage; the engine
	// returns them to the freelist after delivery or eviction.
	pooled bool

	// route is the output port cached for the message while it is the
	// routed head of its buffer: meaningful only while the buffer's stale
	// bit is clear (Router.want).
	route int8

	// GenCycle is the cycle at which the message was generated (queued at its
	// source node). Latency statistics are measured from generation, so
	// source queueing under contention is included.
	GenCycle int64

	// InjectCycle is the cycle at which the message entered the network;
	// global age = now - InjectCycle.
	InjectCycle int64

	// Distance is the hop distance from source to destination router
	// (Manhattan distance under X-Y routing). Node.Inject sets it.
	Distance int32

	// HopCount (dynamic) is the number of router-to-router hops traversed so
	// far. It is zero while the message waits at its source router.
	HopCount int32

	// ArrivalCycle (dynamic) is the cycle the message arrived at its current
	// router; local age = now - ArrivalCycle.
	ArrivalCycle int64

	// ArrivalGap (dynamic) is the number of cycles between this message's
	// arrival at its current input buffer and the previous arrival at the
	// same buffer (Table 2 "Inter-arrival time").
	ArrivalGap int64

	// Payload is one opaque word of protocol-level state for higher layers
	// (the APU coherence layer packs its packet into it); the NoC never reads
	// it.
	Payload uint64

	// next links the message to its successor in the one list it sits in: a
	// node's injection queue (Node), a router input buffer (Buffer) or the
	// network's freelist. It is nil everywhere else — in flight on a link,
	// delivered — and at the tail of its list.
	next *Message
}

// GlobalAge returns the number of cycles since the message entered the
// network.
func (m *Message) GlobalAge(now int64) int64 { return now - m.InjectCycle }

// LocalAge returns the number of cycles the message has waited at its current
// router.
func (m *Message) LocalAge(now int64) int64 { return now - m.ArrivalCycle }

// DstRouter returns the coordinate of the destination node's router and the
// port the node is attached to, as Node.Inject resolved them from Dst. A
// message that never went through Node.Inject carries no destination.
func (m *Message) DstRouter() (Coord, PortID) {
	return Coord{X: int(m.dstX), Y: int(m.dstY)}, PortID(m.dstPort)
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("msg#%d %s %d->%d class=%d flits=%d hops=%d",
		m.ID, m.Type, m.Src, m.Dst, m.Class, m.SizeFlits, m.HopCount)
}

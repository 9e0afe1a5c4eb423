// Package flit implements a flit-level virtual-channel wormhole NoC engine —
// the granularity of the Garnet model the paper builds on — as a check on the
// message-level engine in internal/noc.
//
// Packets are split into head/body/tail flits that traverse the mesh through
// per-VC flit buffers with credit-based flow control. A packet's flits can
// span several routers at once (true wormhole), so head-of-line blocking and
// congestion trees form exactly as in a hardware router.
//
// The engine owns only that flit state: the mesh (router IDs, coordinates,
// ports, neighbours and X-Y directions) is noc's, built by
// noc.BuildMeshCores, and switch allocation — once per output port per cycle —
// asks a noc.Policy to pick among the head packets' descriptors. The policies
// are the arb and core objects the message-level experiments run, so the Fig. 5
// ordering checked here (experiments.FlitCheck) is that of the same code.
package flit

import "mlnoc/internal/noc"

// Kind is a flit's position within its packet.
type Kind uint8

// Flit kinds.
const (
	Head Kind = iota
	Body
	Tail
	// HeadTail is a single-flit packet.
	HeadTail
)

// IsHead reports whether the flit opens a packet.
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit closes a packet.
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Flit is one link-width unit of a packet.
type Flit struct {
	Kind Kind
	// Seq is the flit's index within its packet (0 = head).
	Seq int
	// Pkt is the shared packet descriptor (the message-level descriptor, so
	// noc policies arbitrate it unchanged).
	Pkt *noc.Message
}

// Package trace is the per-message lifecycle tracer of the NoC simulator: a
// sampling, ring-buffered event recorder that follows individual messages
// through injection, buffer arrivals, arbitration wins and losses, link
// traversals, fault requeues/reroutes and delivery — the "why was message X
// slow" layer that aggregate counters (internal/obs) cannot answer.
//
// The tracer hooks the engine exclusively through the passive observer seams
// (noc.Observer, noc.ArbObserver, noc.FaultObserver); it never alters
// simulation behaviour, and with no tracer attached the engine takes the
// exact code path of an uninstrumented network. A Tracer belongs to one
// network and, like the network itself, is not safe for concurrent use.
//
// On top of the raw event stream the package provides a latency-breakdown
// analyzer (Analyze) that folds a trace into per-message and per-class
// queueing/arbitration-loss/link-time components, and exporters for the
// Chrome/Perfetto trace-event JSON format and compact CSV (export.go).
package trace

import (
	"fmt"

	"mlnoc/internal/noc"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	// KindInject marks a message leaving its source node's injection queue
	// and entering the network. Dur carries the source-queueing time
	// (InjectCycle - GenCycle).
	KindInject Kind = iota
	// KindEnqueue marks a message landing in a downstream router's input
	// buffer after a hop (derived from the grant; timestamped at arrival).
	KindEnqueue
	// KindArbWin marks a contested arbitration the message won. Competing
	// holds the rival slot set, NumCands the candidate count.
	KindArbWin
	// KindArbLoss marks a contested arbitration the message lost while at a
	// buffer head; WinPort/WinVC identify the slot the arbiter preferred.
	KindArbLoss
	// KindLink marks a granted link traversal: the message occupies output
	// port Out of router Router for Dur (= SizeFlits) cycles.
	KindLink
	// KindReroute marks a grant whose output deviated from the X-Y port — a
	// message actively routed around damage by a fault-aware routing.
	KindReroute
	// KindRequeue marks a message pulled out of harm's way by the fault
	// layer (off a killed link, or stranded by a table rebuild).
	KindRequeue
	// KindDeliver marks ejection at the destination node. Dur carries the
	// full generation-to-delivery latency.
	KindDeliver
	// KindUnreachable marks eviction with an unreachable-destination verdict.
	KindUnreachable

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindEnqueue:
		return "enqueue"
	case KindArbWin:
		return "arb-win"
	case KindArbLoss:
		return "arb-loss"
	case KindLink:
		return "link"
	case KindReroute:
		return "reroute"
	case KindRequeue:
		return "requeue"
	case KindDeliver:
		return "deliver"
	case KindUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one lifecycle event of a traced message. Fields beyond Kind,
// Cycle and MsgID are kind-specific; unused fields are zero (ports -1).
type Event struct {
	Kind  Kind
	Cycle int64
	MsgID uint64
	Src   noc.NodeID
	Dst   noc.NodeID
	Class noc.Class
	// Router is the router at which the event occurred.
	Router int
	// Port is the input port (buffer) the message occupied, or the node's
	// attach port for inject/deliver events.
	Port noc.PortID
	// VC is the virtual channel of the occupied buffer.
	VC int
	// Out is the arbitrated/granted output port (arb, link, reroute events).
	Out noc.PortID
	// Dur is a duration in cycles: link serialization for KindLink, source
	// queueing for KindInject, total latency for KindDeliver.
	Dur int64
	// NumCands is the number of competing candidates (arb events).
	NumCands int
	// Competing is the competing slot set of an arbitration as a bitmask:
	// bit int(port)*VCs+vc is set for every candidate (arb events).
	Competing uint64
	// WinPort and WinVC identify the arbiter's chosen slot (arb events).
	// WinPort is -1 when a matcher left the output idle (every candidate
	// lost).
	WinPort noc.PortID
	WinVC   int
}

// Config parameterizes a Tracer.
type Config struct {
	// Capacity is the event ring capacity; once full, the oldest events are
	// overwritten (default 1 << 16).
	Capacity int
	// SampleEvery traces only messages whose ID is a multiple of it (<= 1
	// traces every message). Sampling is per-message, never per-event: a
	// sampled message's lifecycle is always recorded completely (up to ring
	// eviction).
	SampleEvery uint64
}

func (c *Config) applyDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
}

// Tracer records lifecycle events of sampled messages into a fixed-capacity
// ring. Create and install one with Attach.
type Tracer struct {
	net    *noc.Network
	vcs    int
	sample uint64

	ring  []Event
	next  int
	total int64 // events recorded over the tracer's lifetime
}

// Attach creates a Tracer for net and installs it on the engine's observer
// seams. Attaching a tracer never changes simulation behaviour.
func Attach(net *noc.Network, cfg Config) *Tracer {
	cfg.applyDefaults()
	t := &Tracer{
		net:    net,
		vcs:    net.Config().VCs,
		sample: cfg.SampleEvery,
		ring:   make([]Event, 0, cfg.Capacity),
	}
	net.AddObserver(t)
	return t
}

// sampled reports whether the message is part of the trace sample.
func (t *Tracer) sampled(m *noc.Message) bool {
	return t.sample <= 1 || m.ID%t.sample == 0
}

func (t *Tracer) record(e Event) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % len(t.ring)
	}
	t.total++
}

// slotBit returns the Competing bitmask bit for a candidate slot.
func (t *Tracer) slotBit(p noc.PortID, vc int) uint64 {
	return 1 << (uint(p)*uint(t.vcs) + uint(vc))
}

// ObserveInject implements noc.Observer.
func (t *Tracer) ObserveInject(now int64, node *noc.Node, m *noc.Message) {
	if !t.sampled(m) {
		return
	}
	t.record(Event{
		Kind: KindInject, Cycle: now, MsgID: m.ID, Src: m.Src, Dst: m.Dst,
		Class: m.Class, Router: node.Router.ID(), Port: node.Port,
		VC: int(m.Class), Out: -1, Dur: now - m.GenCycle, WinPort: -1,
	})
}

// ObserveGrant implements noc.Observer: every grant becomes a link-traversal
// span, plus a derived enqueue event at the downstream buffer for hops and a
// reroute event when the output deviates from the X-Y port on a faulty
// network.
func (t *Tracer) ObserveGrant(now int64, r *noc.Router, out noc.PortID, c noc.Candidate) {
	m := c.Msg
	if !t.sampled(m) {
		return
	}
	base := Event{
		Cycle: now, MsgID: m.ID, Src: m.Src, Dst: m.Dst, Class: m.Class,
		Router: r.ID(), Port: c.Port, VC: c.VC, Out: out,
		Dur: int64(m.SizeFlits), WinPort: -1,
	}
	link := base
	link.Kind = KindLink
	t.record(link)
	if t.net.Faulty() && out != r.XYPort(m) {
		rr := base
		rr.Kind = KindReroute
		rr.Dur = 0
		t.record(rr)
	}
	if next := r.Neighbor(out); next != nil {
		enq := base
		enq.Kind = KindEnqueue
		enq.Cycle = now + int64(m.SizeFlits)
		enq.Router = next.ID()
		enq.Port = out.Opposite()
		enq.Out = -1
		enq.Dur = 0
		t.record(enq)
	}
}

// ObserveDeliver implements noc.Observer.
func (t *Tracer) ObserveDeliver(now int64, node *noc.Node, m *noc.Message) {
	if !t.sampled(m) {
		return
	}
	t.record(Event{
		Kind: KindDeliver, Cycle: now, MsgID: m.ID, Src: m.Src, Dst: m.Dst,
		Class: m.Class, Router: node.Router.ID(), Port: node.Port,
		VC: int(m.Class), Out: -1, Dur: now - m.GenCycle, WinPort: -1,
	})
}

// ObserveArb implements noc.ArbObserver: one win event for the chosen
// candidate and one loss event per defeated candidate, each carrying the
// competing slot set and the arbiter's chosen priority.
func (t *Tracer) ObserveArb(now int64, r *noc.Router, out noc.PortID, cands []noc.Candidate, chosen int) {
	var competing uint64
	for _, c := range cands {
		competing |= t.slotBit(c.Port, c.VC)
	}
	winPort, winVC := noc.PortID(-1), -1
	if chosen >= 0 && chosen < len(cands) {
		winPort, winVC = cands[chosen].Port, cands[chosen].VC
	}
	for i, c := range cands {
		if !t.sampled(c.Msg) {
			continue
		}
		kind := KindArbLoss
		if i == chosen {
			kind = KindArbWin
		}
		t.record(Event{
			Kind: kind, Cycle: now, MsgID: c.Msg.ID, Src: c.Msg.Src,
			Dst: c.Msg.Dst, Class: c.Msg.Class, Router: r.ID(), Port: c.Port,
			VC: c.VC, Out: out, NumCands: len(cands), Competing: competing,
			WinPort: winPort, WinVC: winVC,
		})
	}
}

// ObserveRequeue implements noc.FaultObserver.
func (t *Tracer) ObserveRequeue(now int64, r *noc.Router, p noc.PortID, m *noc.Message) {
	if !t.sampled(m) {
		return
	}
	t.record(Event{
		Kind: KindRequeue, Cycle: now, MsgID: m.ID, Src: m.Src, Dst: m.Dst,
		Class: m.Class, Router: r.ID(), Port: p, VC: int(m.Class), Out: -1,
		WinPort: -1,
	})
}

// ObserveUnreachable implements noc.FaultObserver.
func (t *Tracer) ObserveUnreachable(now int64, r *noc.Router, m *noc.Message) {
	if !t.sampled(m) {
		return
	}
	t.record(Event{
		Kind: KindUnreachable, Cycle: now, MsgID: m.ID, Src: m.Src, Dst: m.Dst,
		Class: m.Class, Router: r.ID(), Port: -1, VC: int(m.Class), Out: -1,
		WinPort: -1,
	})
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int { return len(t.ring) }

// Recorded returns the number of events recorded over the tracer's lifetime,
// including events since evicted from the ring.
func (t *Tracer) Recorded() int64 { return t.total }

// Dropped returns the number of events evicted by ring wrap-around.
func (t *Tracer) Dropped() int64 { return t.total - int64(len(t.ring)) }

// SampleEvery returns the tracer's message sampling period.
func (t *Tracer) SampleEvery() uint64 { return t.sample }

// Events returns the retained events in recording order (oldest first). The
// returned slice is a copy.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

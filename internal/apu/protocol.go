package apu

import (
	"fmt"
	"math/rand"

	"mlnoc/internal/noc"
	"mlnoc/internal/xrand"
)

// opKind tags the protocol operation a message carries.
type opKind uint8

const (
	opGPURead  opKind = iota // CU -> L2 read request
	opGPUWrite               // CU -> L2 write-through (data)
	opIFetch                 // CU -> L1I instruction fetch
	opReadData               // L2/L1I -> CU data response
	opMemRead                // L2/LLC -> Dir read request
	opMemWrite               // L2 -> Dir write-through (data)
	opMemData                // Dir -> L2/LLC data response
	opCohProbe               // Dir -> CU coherence probe
	opCohAck                 // CU -> Dir coherence ack
	opCPURead                // CPU -> LLC read request
	opCPUData                // LLC -> CPU data response
	opWriteAck               // L2 -> CU write acknowledgement
)

// nid is a noc.NodeID narrowed to a 16-bit node index for the protocol
// records (pkt, timedMsg); NewSystem checks that every node's ID fits.
type nid uint16

// pkt is the protocol payload. It travels packed into one word, the
// message's noc.Message.Payload (see word and unpack), so a protocol message
// carries no storage of its own.
//
// Hit/miss outcomes and directory targets are pre-drawn at issue time from
// per-requester random streams and carried in the packet. This keeps the
// workload realization identical across arbitration policies (the op stream
// of each CU depends only on its op index), so policy comparisons are paired
// and differences reflect scheduling, not divergent random streams.
type pkt struct {
	kind opKind
	// hit is the pre-drawn cache outcome at the target (L2 or LLC).
	hit bool
	// requester is the node that originated the transaction (CU or CPU);
	// final data responses are routed to it.
	requester nid
	// via is the intermediate cache (L2 or LLC) on two-level flows.
	via nid
	// dir is the pre-chosen directory for the miss/write path.
	dir nid
}

// The payload word a pkt packs into: bit 0 is set on every such word, so a
// message that carries no pkt (Payload 0) is told apart; bit 1 is hit; bits
// 8-15 are the kind; and requester, via and dir fill bits 16-31, 32-47 and
// 48-63.
const (
	pktCarried = 1 << 0
	pktHit     = 1 << 1
)

// word packs p into a payload word.
func (p pkt) word() uint64 {
	w := uint64(pktCarried) | uint64(p.kind)<<8 |
		uint64(p.requester)<<16 | uint64(p.via)<<32 | uint64(p.dir)<<48
	if p.hit {
		w |= pktHit
	}
	return w
}

// unpack returns the pkt a payload word carries; ok is false for a word
// that carries none.
func unpack(w uint64) (p pkt, ok bool) {
	if w&pktCarried == 0 {
		return pkt{}, false
	}
	return pkt{
		kind: opKind(w >> 8), hit: w&pktHit != 0,
		requester: nid(w >> 16), via: nid(w >> 32), dir: nid(w >> 48),
	}, true
}

// PhaseParams is the per-quadrant behavioural parameter set active during the
// current workload phase; the Runner refreshes it every cycle from the
// quadrant's synfull instance.
type PhaseParams struct {
	MemRatio      float64
	WriteRatio    float64
	L1Hit         float64
	L2Hit         float64
	CoherenceRate float64
	CPUMemRate    float64
	LLCHit        float64
}

// send constructs and injects a protocol message at the from node, its
// payload packed into the message. Messages come from the network's
// freelist: sinks unpack the payload and do not retain the message, so it is
// recycled at delivery.
func (s *System) send(from *noc.Node, to noc.NodeID, class noc.Class, typ noc.MsgType, flits int, payload uint64) {
	s.nextID++
	m := s.Net.AllocMessage()
	m.ID = s.nextID
	m.Dst = to
	m.Class = class
	m.Type = typ
	m.SizeFlits = int32(flits)
	m.Payload = payload
	from.Inject(m)
}

// timedMsg is a bank reply awaiting its service latency: 24 bytes, its
// payload packed as it will travel.
type timedMsg struct {
	ready int64
	p     uint64 // the payload word
	to    nid
	class noc.Class
	typ   noc.MsgType
	flits uint8
}

// bankRepliesPerCycle is every bank's reply bandwidth: the most replies a
// bank issues in one cycle.
const bankRepliesPerCycle = 2

// Bank is a cache or directory endpoint: it services incoming protocol
// messages after a fixed latency (in cycles, by bank kind), bounded by a
// per-cycle reply bandwidth.
type Bank struct {
	Node  *noc.Node
	Label string

	sys  *System
	quad *Quadrant

	latency int64
	// queue holds the replies awaiting service from queue[head] on, in ready
	// order (a bank's latency is fixed). Tick advances head instead of
	// shifting the slice; the served prefix is reclaimed when the queue
	// drains, or compacted when an append would grow a slice it dominates.
	queue []timedMsg
	head  int
	idx   int // the bank's position in System.banks, its bit in System.busy

	// Handled counts protocol messages received by the bank.
	Handled int64
}

func newBank(sys *System, node *noc.Node, label string, quad *Quadrant) *Bank {
	b := &Bank{Node: node, Label: label, sys: sys, quad: quad}
	switch label {
	case "L2":
		b.latency = 4
	case "L1I":
		b.latency = 2
	case "Dir":
		b.latency = 30
	case "LLC":
		b.latency = 8
	default:
		panic("apu: unknown bank label " + label)
	}
	node.Sink = b.sink
	return b
}

func (b *Bank) reply(now int64, to nid, class noc.Class, typ noc.MsgType, flits uint8, p pkt) {
	if len(b.queue) == 0 {
		b.sys.busy[b.idx>>6] |= 1 << (uint(b.idx) & 63) // empty -> non-empty
	} else if len(b.queue) == cap(b.queue) && b.head*2 >= len(b.queue) {
		b.queue = b.queue[:copy(b.queue, b.queue[b.head:])]
		b.head = 0
	}
	b.queue = append(b.queue, timedMsg{
		ready: now + b.latency, p: p.word(), to: to, class: class, typ: typ, flits: flits,
	})
}

// sink handles a protocol message arriving at the bank.
func (b *Bank) sink(now int64, m *noc.Message) {
	b.Handled++
	p, ok := unpack(m.Payload)
	if !ok {
		panic(fmt.Sprintf("apu: %s bank received non-protocol %s", b.Label, m))
	}
	switch p.kind {
	case opGPURead: // at L2
		if p.hit {
			b.reply(now, p.requester, ClassGPUResp, noc.TypeResponse, DataFlits,
				pkt{kind: opReadData, requester: p.requester})
			return
		}
		b.reply(now, p.dir, ClassMemReq, noc.TypeRequest, ReqFlits,
			pkt{kind: opMemRead, requester: p.requester, via: nid(b.Node.ID)})
	case opGPUWrite: // at L2: write-through to memory, ack the CU
		b.reply(now, p.dir, ClassMemReq, noc.TypeRequest, DataFlits,
			pkt{kind: opMemWrite, requester: p.requester, via: nid(b.Node.ID)})
		b.reply(now, p.requester, ClassGPUResp, noc.TypeResponse, ReqFlits,
			pkt{kind: opWriteAck, requester: p.requester})
	case opIFetch: // at L1I
		b.reply(now, p.requester, ClassGPUResp, noc.TypeResponse, DataFlits,
			pkt{kind: opReadData, requester: p.requester})
	case opMemRead: // at Dir
		b.reply(now, p.via, ClassMemResp, noc.TypeResponse, DataFlits,
			pkt{kind: opMemData, requester: p.requester, via: p.via})
	case opMemWrite, opCohAck: // absorbed at Dir
	case opMemData:
		switch b.Label {
		case "L2": // fill, then forward data to the requesting CU
			b.reply(now, p.requester, ClassGPUResp, noc.TypeResponse, DataFlits,
				pkt{kind: opReadData, requester: p.requester})
		case "LLC": // fill, then forward data to the CPU
			b.reply(now, p.requester, ClassCPUResp, noc.TypeResponse, DataFlits,
				pkt{kind: opCPUData, requester: p.requester})
		default:
			panic(fmt.Sprintf("apu: %s bank received memory data", b.Label))
		}
	case opCPURead: // at LLC
		if p.hit {
			b.reply(now, p.requester, ClassCPUResp, noc.TypeResponse, DataFlits,
				pkt{kind: opCPUData, requester: p.requester})
			return
		}
		b.reply(now, p.dir, ClassMemReq, noc.TypeRequest, ReqFlits,
			pkt{kind: opMemRead, requester: p.requester, via: nid(b.Node.ID)})
	default:
		panic(fmt.Sprintf("apu: %s bank cannot handle op %d", b.Label, p.kind))
	}
}

// Tick injects replies whose service latency has elapsed, up to the bank's
// per-cycle bandwidth. Call once per cycle before Network.Step; Runner.Step
// calls it only while the bank holds a queued reply.
func (b *Bank) Tick(now int64) {
	for sent := 0; sent < bankRepliesPerCycle && b.head < len(b.queue) && b.queue[b.head].ready <= now; sent++ {
		t := b.queue[b.head]
		b.head++
		b.sys.send(b.Node, noc.NodeID(t.to), t.class, t.typ, int(t.flits), t.p)
	}
	if b.head == len(b.queue) {
		b.queue, b.head = b.queue[:0], 0
		b.sys.busy[b.idx>>6] &^= 1 << (uint(b.idx) & 63) // non-empty -> empty
	}
}

// CU is one GPU compute unit with its private L1D. It retires OpsRemaining
// operations; memory reads and writes occupy its outstanding-request window,
// so slow responses stall issue — the mechanism that turns NoC latency into
// execution time.
type CU struct {
	Node *noc.Node

	sys  *System
	quad *Quadrant
	l1i  *Bank

	OpsRemaining int64
	Outstanding  int
	Window       int
	IssueWidth   int

	// DoneAt is the completion cycle, or -1 while running.
	DoneAt int64
	// Stalls counts cycles in which issue stopped on a full window.
	Stalls int64
	// Issued counts operations retired.
	Issued int64

	// pending is the drawn-but-not-yet-issued operation, valid while
	// hasPending.
	pending    cuOp
	hasPending bool

	// opRNG drives per-op draws (a fixed number per op, indexed by op order)
	// and cycRNG drives per-cycle draws (ifetch, coherence); splitting the
	// streams keeps the workload identical across arbitration policies.
	// NewSystem builds both over the sources below, which live in the CU so
	// that a launch re-seeds them in place.
	opRNG  *rand.Rand
	cycRNG *rand.Rand
	opSrc  xrand.Source
	cycSrc xrand.Source
}

// ifetchRate is every CU's per-cycle probability of an instruction fetch to
// its shared L1I.
const ifetchRate = 0.01

// cuOp is one drawn-but-not-yet-issued operation.
type cuOp struct {
	kind opKind // opGPURead, opGPUWrite, or opIFetch sentinel for compute
	l2   *Bank
	dir  *Bank
	hit  bool
	mem  bool // false = compute op
}

// drawOp consumes a fixed number of random draws and materializes the CU's
// next operation under the active phase parameters.
func (c *CU) drawOp(params *PhaseParams) cuOp {
	fMem := c.opRNG.Float64()
	fWrite := c.opRNG.Float64()
	fL1 := c.opRNG.Float64()
	fL2 := c.opRNG.Float64()
	l2 := c.quad.L2s[c.opRNG.Intn(len(c.quad.L2s))]
	dir := c.sys.Dirs[c.opRNG.Intn(len(c.sys.Dirs))]

	op := cuOp{l2: l2, dir: dir, hit: fL2 < params.L2Hit}
	if fMem >= params.MemRatio {
		return op // compute op
	}
	op.mem = true
	if fWrite < params.WriteRatio {
		op.kind = opGPUWrite
		return op
	}
	if fL1 < params.L1Hit {
		op.mem = false // L1D hit: no traffic, retires like a compute op
		return op
	}
	op.kind = opGPURead
	return op
}

// Done reports whether the CU has retired all its work and drained its
// window.
func (c *CU) Done() bool { return c.DoneAt >= 0 }

// Tick issues up to IssueWidth operations and the cycle's background traffic
// (instruction fetches, coherence). Call once per cycle until done.
func (c *CU) Tick(now int64, params *PhaseParams) {
	if c.OpsRemaining <= 0 {
		if c.Outstanding == 0 && c.DoneAt < 0 {
			c.DoneAt = now
		}
		return
	}
	for i := 0; i < c.IssueWidth && c.OpsRemaining > 0; i++ {
		if !c.hasPending {
			c.pending, c.hasPending = c.drawOp(params), true
		}
		op := &c.pending
		if op.mem {
			// Reads and write-through writes both occupy a window slot: the
			// write models a bounded write/coalescing buffer released by the
			// L2's ack; without the bound, fire-and-forget writes flood the
			// NoC unrealistically.
			if c.Outstanding >= c.Window {
				c.Stalls++
				break // in-order issue: the stalled op blocks the rest
			}
			flits := ReqFlits
			if op.kind == opGPUWrite {
				flits = DataFlits
			}
			c.sys.send(c.Node, op.l2.Node.ID, ClassGPUReq, noc.TypeRequest, flits,
				pkt{kind: op.kind, requester: nid(c.Node.ID), hit: op.hit, dir: nid(op.dir.Node.ID)}.word())
			c.Outstanding++
		}
		c.hasPending = false
		c.OpsRemaining--
		c.Issued++
	}
	// Per-cycle background draws: always the same three draws per active
	// cycle so the stream stays aligned across policies.
	fIF := c.cycRNG.Float64()
	fCoh := c.cycRNG.Float64()
	dir := c.sys.Dirs[c.cycRNG.Intn(len(c.sys.Dirs))]
	if fIF < ifetchRate {
		c.sys.send(c.Node, c.l1i.Node.ID, ClassGPUReq, noc.TypeRequest, ReqFlits,
			pkt{kind: opIFetch, requester: nid(c.Node.ID)}.word())
	}
	if fCoh < params.CoherenceRate {
		// A directory probes this CU; the CU acks on receipt.
		c.sys.send(dir.Node, c.Node.ID, ClassCoh, noc.TypeCoherence, ReqFlits,
			pkt{kind: opCohProbe, requester: nid(dir.Node.ID)}.word())
	}
}

// sink handles responses and coherence probes arriving at the CU.
func (c *CU) sink(now int64, m *noc.Message) {
	p, ok := unpack(m.Payload)
	if !ok {
		return // foreign message (e.g. raw synthetic traffic in tests)
	}
	switch p.kind {
	case opReadData:
		if m.Class == ClassGPUResp && m.Type == noc.TypeResponse {
			// Instruction-fetch data does not occupy the window; only read
			// responses for windowed requests decrement it. IFetch replies
			// come from L1I banks, window reads from L2 banks; both use
			// opReadData, so distinguish by source kind.
			if c.sys.isL2[m.Src] && c.Outstanding > 0 {
				c.Outstanding--
			}
		}
	case opWriteAck:
		if c.Outstanding > 0 {
			c.Outstanding--
		}
	case opCohProbe:
		c.sys.send(c.Node, m.Src, ClassCoh, noc.TypeCoherence, ReqFlits,
			pkt{kind: opCohAck, requester: nid(c.Node.ID)}.word())
	}
}

// CPU is one quadrant's CPU cluster: it issues OpsRemaining memory operations
// to its LLC through a window of cpuWindow outstanding requests.
type CPU struct {
	Node *noc.Node

	sys  *System
	quad *Quadrant

	OpsRemaining int64
	Outstanding  int

	// DoneAt is the completion cycle, or -1 while running.
	DoneAt int64
	Stalls int64

	wantIssue bool

	// rateRNG is drawn once per active cycle; opRNG twice per issued op. As
	// in CU, the sources are inline and re-seeded per launch.
	rateRNG *rand.Rand
	opRNG   *rand.Rand
	rateSrc xrand.Source
	opSrc   xrand.Source
}

// cpuWindow bounds every CPU's outstanding requests.
const cpuWindow = 8

// Done reports whether the CPU finished its operations.
func (c *CPU) Done() bool { return c.DoneAt >= 0 }

// Tick issues at most one memory operation per cycle with probability
// params.CPUMemRate. The Bernoulli draw happens every active cycle and the
// op's cache outcome is drawn per issued op, keeping both streams aligned
// across policies.
func (c *CPU) Tick(now int64, params *PhaseParams) {
	if c.OpsRemaining <= 0 {
		if c.Outstanding == 0 && c.DoneAt < 0 {
			c.DoneAt = now
		}
		return
	}
	if c.rateRNG.Float64() < params.CPUMemRate {
		c.wantIssue = true
	}
	if !c.wantIssue {
		return
	}
	if c.Outstanding >= cpuWindow {
		c.Stalls++
		return
	}
	hit := c.opRNG.Float64() < params.LLCHit
	dir := c.sys.Dirs[c.opRNG.Intn(len(c.sys.Dirs))]
	c.sys.send(c.Node, c.quad.LLC.Node.ID, ClassCPUReq, noc.TypeRequest, ReqFlits,
		pkt{kind: opCPURead, requester: nid(c.Node.ID), hit: hit, dir: nid(dir.Node.ID)}.word())
	c.Outstanding++
	c.OpsRemaining--
	c.wantIssue = false
}

// sink handles LLC responses arriving at the CPU.
func (c *CPU) sink(now int64, m *noc.Message) {
	if p, ok := unpack(m.Payload); ok && p.kind == opCPUData && c.Outstanding > 0 {
		c.Outstanding--
	}
}

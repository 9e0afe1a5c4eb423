package noc

import (
	"fmt"
	"math"
	"math/bits"

	"mlnoc/internal/stats"
)

// MaxFlits bounds message size; the delivery wheel is sized from it.
const MaxFlits = 32

// wheelLen is the number of delivery-wheel slots: a delivery lands at most
// MaxFlits+1 cycles ahead.
const wheelLen = MaxFlits + 2

// Config describes a mesh network.
type Config struct {
	// Width and Height are the mesh dimensions in routers.
	Width, Height int
	// VCs is the number of virtual channels (message classes) per port.
	VCs int
	// BufferCap is the per-VC input buffer capacity in messages.
	BufferCap int
	// Torus closes both dimensions into rings: every router gets wraparound
	// links (east of column Width-1 connects to column 0, south of row
	// Height-1 to row 0), turning the mesh into a 2D torus. Requires Width
	// and Height >= 3 so the two ring directions of a router are distinct.
	Torus bool
}

func (c *Config) applyDefaults() {
	if c.VCs <= 0 {
		c.VCs = 1
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 4
	}
}

// Stats aggregates network-level measurements. Latency is measured from
// injection into the source router to delivery at the destination node.
type Stats struct {
	Injected  int64
	Delivered int64
	// Latency is generation-to-delivery latency (includes source queueing).
	Latency stats.Accumulator
	// NetLatency is network-injection-to-delivery latency (excludes source
	// queueing); the difference to Latency is time spent waiting to enter
	// the network.
	NetLatency stats.Accumulator
	// HopLatency accumulates per-message hop counts at delivery.
	HopLatency stats.Accumulator
	// PerSource accumulates generation-to-delivery latency per source node,
	// for equality-of-service analysis (Section 5.2 of the paper).
	PerSource []stats.Accumulator
}

// SourceMeanLatencies returns the mean latency per source node with at least
// one delivered message.
func (s *Stats) SourceMeanLatencies() []float64 {
	var out []float64
	for i := range s.PerSource {
		if s.PerSource[i].Count() > 0 {
			out = append(out, s.PerSource[i].Mean())
		}
	}
	return out
}

// FairnessIndex returns Jain's fairness index over the per-source mean
// latencies: 1.0 means every source observes the same average latency.
func (s *Stats) FairnessIndex() float64 {
	return stats.JainIndex(s.SourceMeanLatencies())
}

// delivery is a granted message crossing one output port out: it lands in
// router to (a hop, in input buffer in[out.Opposite()][msg.Class]) or at node
// (an ejection) when its serialization ends.
type delivery struct {
	msg  *Message
	to   *Router // router a hop lands in, nil for ejection
	node *Node   // ejection target, nil for a hop
}

// Network is a mesh NoC simulation. Create one with New, attach nodes, set a
// policy, inject traffic via the nodes, and call Step once per cycle.
type Network struct {
	cfg     Config
	routers []*Router
	nodes   []*Node
	policy  Policy
	matcher Matcher // non-nil when policy implements Matcher
	routing Routing // nil means built-in X-Y routing

	// fault layer (see faultstate.go); zero-cost while faulty is false.
	faulty bool
	fstats FaultStats

	observers []Observer      // engine instrumentation (see observe.go)
	arbObs    []ArbObserver   // observers that also watch whole arbitrations
	faultObs  []FaultObserver // observers that also watch fault events

	cycle int64

	// The delivery store, sized at New. An output granted at cycle c for S
	// flits is busy until c+S, when its delivery lands, and deliver runs
	// before arbitrate, so each output port has at most one delivery in
	// flight: dels[r.id*MaxPorts+out] is the one crossing output out of
	// router r (msg == nil while none is). The wheel threads the deliveries
	// landing in each cycle as a FIFO in grant order: wheelHead/wheelTail[s]
	// are the first and last dels index of slot s and delNext links each to
	// the next, -1 ending a list.
	dels      []delivery
	delNext   []int32
	wheelHead [wheelLen]int32
	wheelTail [wheelLen]int32
	slot      int // cycle % wheelLen, kept by Step without a division
	pending   int // messages scheduled but not yet delivered

	// pendingInj counts messages queued at nodes that have not yet entered
	// the network, maintained incrementally by Node.Inject/dequeue so the
	// Drain/Quiescent check is O(1) instead of O(nodes) per cycle.
	pendingInj int

	// inflightBySrc counts the outstanding messages per source node. It and
	// stats.PerSource are per-node tables that sizeNodeTables brings to the
	// node count the first time the node set is used — at a Step or an
	// accessor — instead of growing them by one per AttachNode.
	inflightBySrc []int

	// in-flight age tracking for reward functions
	inflightCount int64
	inflightBase  int64 // sum of InjectCycle over in-flight messages

	// delivery window for the accumulated-latency reward
	windowLatencySum int64
	windowDelivered  int64

	// link utilization of the most recently completed cycle. busyOutputs is
	// maintained incrementally: grants increment it, and busyRelease (a wheel
	// parallel to the delivery wheel) schedules the decrement for the cycle
	// each output port frees up.
	busyOutputs  int
	busyRelease  [wheelLen]int
	totalOutputs int
	lastUtil     float64

	stats Stats

	// OnCycle, if non-nil, runs at the end of every Step (after arbitration
	// and delivery). The RL trainer uses it to run one training batch per
	// cycle.
	OnCycle func(n *Network)

	// reqScratch backs the matcher's request list.
	reqScratch []Request

	// arbCtx/matchCtx are the per-cycle contexts handed to policies. They
	// live on the Network so the interface call does not force a heap
	// allocation every Step.
	arbCtx   ArbContext
	matchCtx MatchContext

	// Arbitration-state geometry (see Router.occ): bitPort maps a buffer's bit
	// to its port; vcMask has the low VCs bits set; multiplying a VC mask by
	// spreadMul copies it to every port's bit group.
	bitPort   [64]uint8
	vcMask    uint64
	spreadMul uint64

	// Active-set stepping (see activeset.go). actR bit r is set iff router r
	// has occ != 0; actN bit i is set iff node i has a pending injection.
	actR      []uint64
	actN      []uint64
	actRCount int

	// candArena backs the candidate lists of a router's turn.
	candArena []Candidate

	// bufCap is every input buffer's capacity (Config.BufferCap).
	bufCap int32

	// free is the freelist of delivered/evicted pooled messages
	// (AllocMessage), linked through Message.next.
	free *Message
}

// New creates an empty W x H mesh with no nodes attached. Use AttachNode (or
// a topology helper) to add endpoints, then SetPolicy.
func New(cfg Config) *Network {
	cfg.applyDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.Width > math.MaxInt16 || cfg.Height > math.MaxInt16 {
		panic(fmt.Sprintf("noc: mesh dimensions %dx%d exceed %d", cfg.Width, cfg.Height, math.MaxInt16))
	}
	if cfg.Torus && (cfg.Width < 3 || cfg.Height < 3) {
		panic("noc: torus dimensions must be at least 3x3")
	}
	if cfg.VCs > MaxVCs {
		panic(fmt.Sprintf("noc: %d VCs exceed MaxVCs = %d", cfg.VCs, MaxVCs))
	}
	n := &Network{
		cfg:        cfg,
		vcMask:     1<<cfg.VCs - 1,
		candArena:  make([]Candidate, 0, MaxPorts*cfg.VCs),
		reqScratch: make([]Request, 0, MaxPorts),
		bufCap:     int32(min(cfg.BufferCap, math.MaxInt32)),
	}
	for s := range n.wheelHead {
		n.wheelHead[s], n.wheelTail[s] = -1, -1
	}
	for p := 0; p < MaxPorts; p++ {
		n.spreadMul |= 1 << (p * cfg.VCs)
		for vc := 0; vc < cfg.VCs; vc++ {
			n.bitPort[p*cfg.VCs+vc] = uint8(p)
		}
	}
	n.routers = make([]*Router, cfg.Width*cfg.Height)
	n.actR = make([]uint64, (len(n.routers)+63)/64)
	n.dels = make([]delivery, len(n.routers)*MaxPorts)
	n.delNext = make([]int32, len(n.dels))
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			id := y*cfg.Width + x
			r := &Router{
				id: id, Coord: Coord{X: x, Y: y}, net: n,
				actWord: id >> 6, actMask: 1 << (uint(id) & 63),
			}
			for p := range r.inGrantedAt {
				r.inGrantedAt[p] = -1
			}
			n.routers[id] = r
		}
	}
	// Wire mesh links and allocate direction-port buffers. On a torus the
	// neighbor coordinates wrap, so every router has all four direction
	// ports; the east<->west and north<->south pairing of Opposite holds on
	// wraparound links exactly as on interior ones.
	for _, r := range n.routers {
		link := func(p PortID, nx, ny int) {
			if cfg.Torus {
				nx = (nx + cfg.Width) % cfg.Width
				ny = (ny + cfg.Height) % cfg.Height
			} else if nx < 0 || ny < 0 || nx >= cfg.Width || ny >= cfg.Height {
				return
			}
			r.peerRouter[p] = n.routers[ny*cfg.Width+nx]
			n.allocPortBuffers(r, p)
		}
		link(PortNorth, r.Coord.X, r.Coord.Y-1)
		link(PortSouth, r.Coord.X, r.Coord.Y+1)
		link(PortWest, r.Coord.X-1, r.Coord.Y)
		link(PortEast, r.Coord.X+1, r.Coord.Y)
	}
	return n
}

func (n *Network) allocPortBuffers(r *Router, p PortID) {
	if r.in[p] != nil {
		return
	}
	bufs := make([]Buffer, n.cfg.VCs)
	for vc := range bufs {
		bufs[vc].lastArr = -1
	}
	r.in[p] = bufs
	r.nPorts++
	n.totalOutputs++
}

// AttachNode attaches a new endpoint to the router at (x, y) on the given
// port. Attaching to a direction port is only allowed when that port has no
// mesh neighbor (an edge port), which is how the paper's CPU clusters hang
// off the GPU mesh.
func (n *Network) AttachNode(x, y int, port PortID, kind DstType, label string) *Node {
	r := n.RouterAt(x, y)
	if r.peerRouter[port] != nil {
		panic(fmt.Sprintf("noc: port %s of %s already linked to a neighbor", port, r))
	}
	if r.peerNode[port] != nil {
		panic(fmt.Sprintf("noc: port %s of %s already has a node", port, r))
	}
	node := &Node{
		ID:     NodeID(len(n.nodes)),
		Kind:   kind,
		Label:  label,
		Router: r,
		Port:   port,
		net:    n,
	}
	r.peerNode[port] = node
	n.allocPortBuffers(r, port)
	n.nodes = append(n.nodes, node)
	if want := (len(n.nodes) + 63) / 64; len(n.actN) < want {
		n.actN = append(n.actN, 0)
	}
	return node
}

// SetPolicy installs the arbitration policy. If the policy also implements
// Matcher, whole-router matching is used instead of per-output selection.
func (n *Network) SetPolicy(p Policy) {
	n.policy = p
	n.matcher, _ = p.(Matcher)
}

// Policy returns the installed arbitration policy.
func (n *Network) Policy() Policy { return n.policy }

// SetRouting installs a routing algorithm, replacing built-in X-Y routing
// (pass nil to restore it). Installing a Routing marks the network faulty so
// unreachable verdicts are honored; with all links healthy, the reference
// implementations route identically to X-Y.
func (n *Network) SetRouting(rt Routing) {
	n.routing = rt
	if rt != nil {
		n.faulty = true
	}
	// The new routing may reach different verdicts on every buffered head.
	n.invalidateRoutes()
}

// Routing returns the installed routing algorithm, or nil when the built-in
// X-Y routing is active.
func (n *Network) Routing() Routing { return n.routing }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Torus reports whether the network's dimensions wrap around (2D torus).
func (n *Network) Torus() bool { return n.cfg.Torus }

// Distance returns the minimal hop distance between two router coordinates
// under the network's topology: Manhattan distance on a mesh, per-dimension
// ring distance on a torus.
func (n *Network) Distance(a, b Coord) int {
	if !n.cfg.Torus {
		return a.Manhattan(b)
	}
	return ringDist(a.X, b.X, n.cfg.Width) + ringDist(a.Y, b.Y, n.cfg.Height)
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// RouterAt returns the router at mesh coordinate (x, y).
func (n *Network) RouterAt(x, y int) *Router {
	if x < 0 || y < 0 || x >= n.cfg.Width || y >= n.cfg.Height {
		panic(fmt.Sprintf("noc: router (%d,%d) out of range", x, y))
	}
	return n.routers[y*n.cfg.Width+x]
}

// Routers returns all routers in row-major order.
func (n *Network) Routers() []*Router { return n.routers }

// Nodes returns all attached nodes in attachment order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// sizeNodeTables brings the per-node tables to one entry per attached node:
// one allocation each when the node set is first used, and one resize per
// use after further AttachNodes. Existing entries keep their counts.
func (n *Network) sizeNodeTables() {
	if len(n.inflightBySrc) == len(n.nodes) {
		return
	}
	inflight := make([]int, len(n.nodes))
	copy(inflight, n.inflightBySrc)
	n.inflightBySrc = inflight
	perSource := make([]stats.Accumulator, len(n.nodes))
	copy(perSource, n.stats.PerSource)
	n.stats.PerSource = perSource
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() *Stats {
	n.sizeNodeTables()
	return &n.stats
}

// ResetStats clears latency and counter statistics (typically after warmup).
// In-flight bookkeeping is preserved. PerSource is zeroed in place, so the
// cycles after a reset allocate no more than those before it.
func (n *Network) ResetStats() {
	n.sizeNodeTables()
	perSource := n.stats.PerSource
	clear(perSource)
	n.stats = Stats{PerSource: perSource}
	n.windowLatencySum = 0
	n.windowDelivered = 0
}

// InFlight returns the number of messages currently inside the network.
func (n *Network) InFlight() int64 { return n.inflightCount }

// OutstandingFrom returns the number of in-flight messages injected by the
// given source node (Table 2 "In-flight messages" feature).
func (n *Network) OutstandingFrom(src NodeID) int {
	n.sizeNodeTables()
	return n.inflightBySrc[src]
}

// AvgInFlightAge returns the mean age of all in-flight messages at the
// current cycle, or 0 when the network is empty.
func (n *Network) AvgInFlightAge() float64 {
	if n.inflightCount == 0 {
		return 0
	}
	return float64(n.cycle*n.inflightCount-n.inflightBase) / float64(n.inflightCount)
}

// TakeDeliveryWindow returns and resets the (latency sum, count) of messages
// delivered since the previous call. The accumulated-latency reward function
// samples this every period.
func (n *Network) TakeDeliveryWindow() (sum int64, count int64) {
	sum, count = n.windowLatencySum, n.windowDelivered
	n.windowLatencySum, n.windowDelivered = 0, 0
	return sum, count
}

// LinkUtilization returns the fraction of connected output ports that were
// transferring a message during the most recently completed cycle (Section
// 6.3 "link utilization" reward).
func (n *Network) LinkUtilization() float64 { return n.lastUtil }

// AllocMessage returns a zeroed Message, reusing one the engine recycled
// after delivery or eviction when possible. Messages from this pool are
// returned to it as soon as they are delivered (after the destination node's
// Sink and the observers ran) — callers and sinks must not retain the
// pointer past that point. Traffic generators and protocol layers use this
// to make steady-state injection allocation-free.
func (n *Network) AllocMessage() *Message {
	if m := n.free; m != nil {
		n.free = m.next
		*m = Message{pooled: true}
		return m
	}
	return &Message{pooled: true}
}

// recycleMessage pushes a pooled message onto the freelist; it is in no
// buffer, so its link is free. Messages built with plain &Message{} literals
// are left alone: the engine cannot know who still references them.
func (n *Network) recycleMessage(m *Message) {
	if m.pooled {
		m.next = n.free
		n.free = m
	}
}

// Step advances the simulation by one cycle: deliveries scheduled for this
// cycle land, nodes inject, every router arbitrates its free output ports,
// and OnCycle runs.
func (n *Network) Step() {
	if n.policy == nil {
		panic("noc: Step called with no policy installed")
	}
	n.sizeNodeTables()
	n.cycle++
	if n.slot++; n.slot == wheelLen {
		n.slot = 0
	}
	n.deliver()
	n.inject()
	n.arbitrate()
	n.countUtilization()
	if n.faulty {
		n.fstats.DowntimeCycles += n.fstats.LinksDown
	}
	if n.OnCycle != nil {
		n.OnCycle(n)
	}
}

// Run advances the simulation by cycles steps.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain steps the simulation until every injected message has been delivered
// and all node injection queues are empty, or maxCycles additional cycles
// elapse. It reports whether the network fully drained.
func (n *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.Quiescent() {
			return true
		}
		n.Step()
	}
	return n.Quiescent()
}

// Quiescent reports whether no messages are in flight and no node has pending
// injections. It is O(1): the pending-injection total is maintained
// incrementally as messages enter and leave the node queues.
func (n *Network) Quiescent() bool {
	return n.inflightCount == 0 && n.pending == 0 && n.pendingInj == 0
}

// PendingInjections returns the total number of messages queued at nodes that
// have not yet entered the network.
func (n *Network) PendingInjections() int { return n.pendingInj }

// schedule puts d in output out's slot of the delivery store, landing delay
// cycles from now at the tail of its wheel slot, and returns that wheel slot.
// One conditional subtract replaces the division by the wheel length: delay
// is below it. The output's slot must be free: an output is granted only
// once its previous delivery has landed.
func (n *Network) schedule(r *Router, out PortID, delay int64, d delivery) int {
	if delay <= 0 {
		panic("noc: delivery delay must be positive")
	}
	if delay >= wheelLen {
		panic(fmt.Sprintf(
			"noc: delivery delay %d does not fit the %d-slot wheel (MaxFlits=%d; message %s has %d flits)",
			delay, wheelLen, MaxFlits, d.msg, d.msg.SizeFlits))
	}
	i := int32(r.id*MaxPorts + int(out))
	if prev := n.dels[i].msg; prev != nil {
		panic(fmt.Sprintf("noc: output %s of %s granted %s while %s is still in flight on it",
			out, r, d.msg, prev))
	}
	slot := n.slot + int(delay)
	if slot >= wheelLen {
		slot -= wheelLen
	}
	n.dels[i] = d
	n.delNext[i] = -1
	if t := n.wheelTail[slot]; t < 0 {
		n.wheelHead[slot] = i
	} else {
		n.delNext[t] = i
	}
	n.wheelTail[slot] = i
	n.pending++
	return slot
}

// deliver lands this cycle's wheel slot in grant order, freeing each
// delivery's output slot as it goes.
func (n *Network) deliver() {
	i := n.wheelHead[n.slot]
	if i < 0 {
		return
	}
	n.wheelHead[n.slot], n.wheelTail[n.slot] = -1, -1
	dels, delNext := n.dels, n.delNext
	for i >= 0 {
		// Load the next link before the landing's calls, so the walk does
		// not wait on it after them.
		d, next := dels[i], delNext[i]
		dels[i].msg = nil
		out := PortID(i % MaxPorts)
		i = next
		n.pending--
		if d.to != nil {
			// The reserved slot becomes a queued message: len+reserved, and
			// with it the buffer's full bit, does not change.
			p, vc := out.Opposite(), int(d.msg.Class)
			d.to.in[p][vc].reserved--
			d.to.push(p, vc, n.cycle, d.msg)
			continue
		}
		// Ejection at destination node.
		m := d.msg
		lat := n.cycle - m.InjectCycle
		n.stats.Delivered++
		genLat := float64(n.cycle - m.GenCycle)
		n.stats.Latency.Add(genLat)
		n.stats.NetLatency.Add(float64(lat))
		n.stats.HopLatency.Add(float64(m.HopCount))
		n.stats.PerSource[m.Src].Add(genLat)
		n.windowLatencySum += lat
		n.windowDelivered++
		n.inflightCount--
		n.inflightBase -= m.InjectCycle
		n.inflightBySrc[m.Src]--
		if d.node.Sink != nil {
			d.node.Sink(n.cycle, m)
		}
		if len(n.observers) > 0 {
			n.observeDeliver(d.node, m)
		}
		n.recycleMessage(m)
	}
}

// unlinkDeliveries walks the wheel, slot by slot in index order and each slot
// in grant order, and unlinks every delivery drop reports true for, freeing
// its output's slot. drop gets the dels index and sees the delivery in place.
func (n *Network) unlinkDeliveries(drop func(i int32) bool) {
	for s := range n.wheelHead {
		prev := int32(-1)
		for i := n.wheelHead[s]; i >= 0; {
			next := n.delNext[i]
			if !drop(i) {
				prev, i = i, next
				continue
			}
			if prev < 0 {
				n.wheelHead[s] = next
			} else {
				n.delNext[prev] = next
			}
			if n.wheelTail[s] == i {
				n.wheelTail[s] = prev
			}
			n.dels[i].msg = nil
			n.pending--
			i = next
		}
	}
}

func (n *Network) inject() {
	if n.pendingInj == 0 {
		return // no node holds a queued message; nothing can inject
	}
	// Visit only nodes with a pending injection, in ascending node ID. The
	// per-word snapshot is safe: injectFrom never sets a node-activity bit (it
	// only dequeues), so no active node can be missed mid-scan.
	for wi, word := range n.actN {
		if word == 0 {
			continue
		}
		base := wi << 6
		for ; word != 0; word &= word - 1 {
			n.injectFrom(n.nodes[base+bits.TrailingZeros64(word)])
		}
	}
}

// injectFrom moves the head of node's injection queue into its attach buffer
// if the attach link is up and the buffer has space. The caller guarantees
// the queue is non-empty.
func (n *Network) injectFrom(node *Node) {
	if n.faulty && node.Router.linkDown[node.Port] {
		return // the node's attach link is down; injections wait
	}
	m := node.qHead
	if int(m.Class) >= n.cfg.VCs {
		panic(fmt.Sprintf("noc: %s has class %d but network has %d VCs",
			m, m.Class, n.cfg.VCs))
	}
	if !node.Router.in[node.Port][m.Class].free(n.bufCap) {
		return
	}
	node.dequeue()

	m.InjectCycle = n.cycle
	m.HopCount = 0
	node.Router.push(node.Port, int(m.Class), n.cycle, m)

	n.stats.Injected++
	n.inflightCount++
	n.inflightBase += n.cycle
	n.inflightBySrc[m.Src]++
	if len(n.observers) > 0 {
		n.observeInject(node, m)
	}
}

// routeHeads brings router r's cached routes up to date: every stale head is
// routed once, its output port cached in the message and its bit moved from
// r.stale to r.want[out], in ascending (port, VC) order. A head with an
// unreachable verdict is evicted on the spot — popped, counted and reported —
// and its successor routed in its place. A verdict naming a port r lacks is a
// routing bug and panics. A cached verdict stays valid until the head is
// popped or invalidateRoutes runs (the Routing contract).
func (n *Network) routeHeads(r *Router) {
	for mask := r.stale; mask != 0; mask &= mask - 1 {
		bit := bits.TrailingZeros64(mask)
		p := PortID(n.bitPort[bit])
		vc := bit - int(p)*n.cfg.VCs
		buf := &r.in[p][vc]
		for buf.n > 0 {
			out := r.Route(buf.head)
			if out == RouteUnreachable {
				n.evictHead(r, p, vc)
				continue
			}
			if uint(out) >= MaxPorts || !r.HasPort(out) {
				name := XYRouting{}.Name()
				if n.routing != nil {
					name = n.routing.Name()
				}
				panic(fmt.Sprintf("noc: routing %s sent %s to unconnected output %s of %s",
					name, buf.Head(), out, r))
			}
			buf.head.route = int8(out)
			r.want[out] |= 1 << bit
			r.outs |= 1 << out
			r.stale &^= 1 << bit
			break
		}
	}
}

// invalidateRoutes drops every cached route. Called on the transitions that
// may change a buffered head's verdict: link state and SetRouting.
func (n *Network) invalidateRoutes() {
	for _, r := range n.routers {
		r.want = [MaxPorts]uint64{}
		r.outs = 0
		r.stale = r.occ
	}
}

// requests returns the buffer mask of the heads that may be granted output
// port out of r this cycle — those routed to it, or none while the port is
// serializing or its link is down. r's routes must be current (routeHeads).
func (r *Router) requests(out PortID, now int64) uint64 {
	if r.outBusyUntil[out] > now || r.linkDown[out] {
		return 0
	}
	return r.want[out]
}

// appendCands appends to dst the candidates among the requesting buffers req
// (a subset of r.requests(out)) for output port out of router r, leaving out
// those whose downstream buffer (for a hop) has no space.
func (n *Network) appendCands(dst []Candidate, r *Router, out PortID, req uint64) []Candidate {
	if next := r.peerRouter[out]; next != nil {
		fullVCs := next.full >> (uint(out.Opposite()) * uint(n.cfg.VCs)) & n.vcMask
		req &^= fullVCs * n.spreadMul
	}
	return n.appendHeads(dst, r, req)
}

// appendHeads appends to dst the heads of r's buffers in mask as candidates,
// in ascending (port, VC) order. It is the one place the arbitration state
// becomes a candidate list.
func (n *Network) appendHeads(dst []Candidate, r *Router, mask uint64) []Candidate {
	vcs := n.cfg.VCs
	for ; mask != 0; mask &= mask - 1 {
		bit := bits.TrailingZeros64(mask)
		p := n.bitPort[bit]
		vc := bit - int(p)*vcs
		dst = append(dst, Candidate{Port: PortID(p), VC: vc, Msg: r.in[p][vc].head})
	}
	return dst
}

func (n *Network) applyGrant(r *Router, out PortID, c Candidate) {
	if r.in[c.Port][c.VC].head != c.Msg {
		panic("noc: granted candidate is no longer at its buffer head")
	}
	m := r.pop(c.Port, c.VC)
	r.outBusyUntil[out] = n.cycle + int64(m.SizeFlits)
	r.inGrantedAt[c.Port] = n.cycle
	// Without an installed Routing the granted port is the X-Y port.
	if n.routing != nil && out != r.XYPort(m) {
		n.fstats.Reroutes++
	}
	n.busyOutputs++
	if len(n.observers) > 0 {
		n.observeGrant(r, out, c)
	}

	d := delivery{msg: m}
	if d.to = r.peerRouter[out]; d.to != nil {
		m.HopCount++
		d.to.reserve(out.Opposite(), c.VC)
	} else if d.node = r.peerNode[out]; d.node == nil {
		panic(fmt.Sprintf("noc: grant to unconnected output %s of %s", out, r))
	} else if m.Dst != d.node.ID {
		panic(fmt.Sprintf("noc: %s misrouted to %s", m, d.node))
	}
	// The output stays busy for cycles [now, now+SizeFlits): the busy-count
	// decrement is due in the slot the delivery lands in.
	n.busyRelease[n.schedule(r, out, int64(m.SizeFlits), d)]++
}

func (n *Network) arbitrate() {
	n.arbCtx = ArbContext{Net: n, Cycle: n.cycle}
	n.matchCtx = MatchContext{Net: n, Cycle: n.cycle}
	// Visit only routers with buffered messages, in ascending router ID.
	// Per-word snapshots are safe: no activity bit is ever set during
	// arbitration (deliveries land on future cycles, grants and evictions only
	// pop), and a mid-word clear can only come from the router being visited.
	for wi, word := range n.actR {
		for base := wi << 6; word != 0; word &= word - 1 {
			n.arbitrateRouter(n.routers[base+bits.TrailingZeros64(word)])
		}
	}
}

// arbitrateRouter runs one router's turn of the cycle: route its new heads,
// evicting unreachable ones, then visit the outputs its heads request, in
// ascending order. A policy grants each output as it is visited; a matcher
// gets every output's candidates at once.
func (n *Network) arbitrateRouter(r *Router) {
	if r.stale != 0 {
		n.routeHeads(r)
	}
	// Every head is in at most one want mask, so the arena, one candidate
	// per (port, VC) buffer, never regrows.
	arena, reqs := n.candArena[:0], n.reqScratch[:0]
	// granted masks the buffers of the input ports that forwarded a message
	// to an earlier output of this turn: one grant per input port per cycle.
	var granted uint64
	for outs := r.outs; outs != 0; outs &= outs - 1 {
		out := PortID(bits.TrailingZeros8(outs))
		req := r.requests(out, n.cycle) &^ granted
		if req == 0 {
			continue
		}
		start := len(arena)
		arena = n.appendCands(arena, r, out, req)
		cands := arena[start:len(arena):len(arena)]
		if len(cands) == 0 {
			continue
		}
		if n.matcher != nil {
			reqs = append(reqs, Request{Out: out, Cands: cands})
			continue
		}
		c := n.selectAndGrant(r, out, cands)
		granted |= n.vcMask << (uint(c.Port) * uint(n.cfg.VCs))
	}
	if n.matcher != nil {
		n.matchAndApply(r, reqs)
	}
}

// selectAndGrant lets the policy pick among cands for output out of r, applies
// the grant and returns the winner.
func (n *Network) selectAndGrant(r *Router, out PortID, cands []Candidate) Candidate {
	ctx := &n.arbCtx
	ctx.Router, ctx.Out = r, out
	choice := 0
	if len(cands) > 1 {
		choice = n.policy.Select(ctx, cands)
		if choice < 0 || choice >= len(cands) {
			panic(fmt.Sprintf("noc: policy %s returned choice %d of %d candidates",
				n.policy.Name(), choice, len(cands)))
		}
	}
	if len(n.arbObs) > 0 && len(cands) > 1 {
		n.observeArb(r, out, cands, choice)
	}
	n.applyGrant(r, out, cands[choice])
	return cands[choice]
}

// matchAndApply runs the installed matcher over r's requests and applies the
// grants, enforcing the one-grant-per-input-port invariant.
func (n *Network) matchAndApply(r *Router, reqs []Request) {
	n.reqScratch = reqs[:0]
	if len(reqs) == 0 {
		return
	}
	mctx := &n.matchCtx
	mctx.Router = r
	grants := n.matcher.Match(mctx, reqs)
	if len(grants) != len(reqs) {
		panic(fmt.Sprintf("noc: matcher %s returned %d grants for %d requests",
			n.policy.Name(), len(grants), len(reqs)))
	}
	var usedIn [MaxPorts]bool
	for i, g := range grants {
		if len(n.arbObs) > 0 && (len(reqs[i].Cands) > 1 || g < 0) {
			n.observeArb(r, reqs[i].Out, reqs[i].Cands, g)
		}
		if g < 0 {
			continue
		}
		if g >= len(reqs[i].Cands) {
			panic(fmt.Sprintf("noc: matcher %s grant %d out of range", n.policy.Name(), g))
		}
		c := reqs[i].Cands[g]
		if usedIn[c.Port] {
			panic(fmt.Sprintf("noc: matcher %s granted input port %s twice", n.policy.Name(), c.Port))
		}
		usedIn[c.Port] = true
		n.applyGrant(r, reqs[i].Out, c)
	}
}

func (n *Network) countUtilization() {
	// Retire ports whose serialization ended this cycle (outBusyUntil ==
	// cycle): they were busy through cycle-1 but are idle now. Grants made
	// this cycle always release at cycle+SizeFlits >= cycle+1, so the slot
	// only holds releases that are due.
	n.busyOutputs -= n.busyRelease[n.slot]
	n.busyRelease[n.slot] = 0
	if n.totalOutputs == 0 {
		n.lastUtil = 0
		return
	}
	n.lastUtil = float64(n.busyOutputs) / float64(n.totalOutputs)
}

// Package traffic provides synthetic traffic patterns and injection processes
// for driving mesh networks: uniform random, transpose, bit-complement,
// hotspot and tornado patterns with Bernoulli injection, plus a harness that
// runs warmup/measure/drain phases and reports latency statistics.
//
// The paper's Section 3.2 study uses uniform random traffic; the other
// patterns are standard NoC evaluation patterns used by the extended tests
// and examples.
package traffic

import (
	"math/rand"

	"mlnoc/internal/noc"
	"mlnoc/internal/xrand"
)

// Pattern chooses a destination index for a message injected by the node at
// srcIdx within the endpoint set. Indices are positions within the slice of
// participating nodes, not raw NodeIDs.
type Pattern interface {
	Name() string
	Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int
}

// UniformRandom sends each message to a destination chosen uniformly at
// random among the other endpoints.
type UniformRandom struct{}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform-random" }

// Dest implements Pattern.
func (UniformRandom) Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int {
	d := rng.Intn(len(nodes) - 1)
	if d >= srcIdx {
		d++
	}
	return d
}

// Transpose sends from mesh coordinate (x, y) to (y, x). Nodes whose
// coordinates are on the diagonal send uniformly at random.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int {
	src := nodes[srcIdx].Router.Coord
	if src.X == src.Y {
		return UniformRandom{}.Dest(rng, nodes, srcIdx)
	}
	want := noc.Coord{X: src.Y, Y: src.X}
	for i, n := range nodes {
		if n.Router.Coord == want {
			return i
		}
	}
	return UniformRandom{}.Dest(rng, nodes, srcIdx)
}

// BitComplement sends from endpoint index i to index (N-1)-i.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// Dest implements Pattern.
func (BitComplement) Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int {
	d := len(nodes) - 1 - srcIdx
	if d == srcIdx {
		return UniformRandom{}.Dest(rng, nodes, srcIdx)
	}
	return d
}

// Hotspot sends a fraction of traffic to a small set of hotspot endpoints and
// the remainder uniformly at random.
type Hotspot struct {
	// Spots are endpoint indices receiving the concentrated traffic.
	Spots []int
	// Fraction in [0,1] is the probability a message targets a hotspot.
	Fraction float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h Hotspot) Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int {
	if len(h.Spots) > 0 && rng.Float64() < h.Fraction {
		d := h.Spots[rng.Intn(len(h.Spots))]
		if d != srcIdx {
			return d
		}
	}
	return UniformRandom{}.Dest(rng, nodes, srcIdx)
}

// Tornado sends from (x, y) to ((x + W/2 - 1) mod W, y) on a W-wide mesh,
// a classic adversarial pattern for dimension-ordered routing.
type Tornado struct{ Width int }

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (t Tornado) Dest(rng *rand.Rand, nodes []*noc.Node, srcIdx int) int {
	src := nodes[srcIdx].Router.Coord
	if t.Width < 2 {
		return UniformRandom{}.Dest(rng, nodes, srcIdx)
	}
	want := noc.Coord{X: (src.X + t.Width/2 - 1) % t.Width, Y: src.Y}
	for i, n := range nodes {
		if n.Router.Coord == want && i != srcIdx {
			return i
		}
	}
	return UniformRandom{}.Dest(rng, nodes, srcIdx)
}

// SizeMix describes the distribution of message sizes: a message is Long
// flits with probability LongFrac, otherwise Short flits. The paper's system
// uses 1-flit request/coherence messages and 5-flit data messages.
type SizeMix struct {
	Short, Long int
	LongFrac    float64
}

// DefaultSizeMix matches the paper: 1-flit and 5-flit messages.
var DefaultSizeMix = SizeMix{Short: 1, Long: 5, LongFrac: 0.3}

func (s SizeMix) sample(rng *rand.Rand) int {
	if rng.Float64() < s.LongFrac {
		return s.Long
	}
	return s.Short
}

// Injector drives Bernoulli open-loop injection: every cycle each
// participating node independently injects a message with probability Rate.
type Injector struct {
	// Nodes are the participating endpoints (both sources and destinations).
	Nodes []*noc.Node
	// Pattern chooses destinations.
	Pattern Pattern
	// Rate is the per-node injection probability per cycle.
	Rate float64
	// Sizes is the message size mix (DefaultSizeMix if zero).
	Sizes SizeMix
	// Classes is the number of message classes to spread over; messages get
	// a uniformly random class in [0, Classes). Defaults to 1.
	Classes int

	rng    *rand.Rand
	nextID uint64
	net    *noc.Network // cached from Nodes[0] for the message freelist
}

// NewInjector creates an injector over the given nodes.
func NewInjector(nodes []*noc.Node, p Pattern, rate float64, rng *rand.Rand) *Injector {
	if len(nodes) < 2 {
		panic("traffic: injector needs at least two nodes")
	}
	if rate < 0 || rate > 1 {
		panic("traffic: injection rate must be in [0,1]")
	}
	return &Injector{
		Nodes:   nodes,
		Pattern: p,
		Rate:    rate,
		Sizes:   DefaultSizeMix,
		Classes: 1,
		rng:     rng,
	}
}

// Tick performs one cycle of injections. Call it once before each
// Network.Step (or from a wrapper loop).
func (in *Injector) Tick() {
	if in.net == nil {
		in.net = in.Nodes[0].Network()
	}
	for i, node := range in.Nodes {
		if in.rng.Float64() >= in.Rate {
			continue
		}
		// RNG draw order (dest, size, class) matches the historical literal
		// construction so seeded runs stay bit-identical; messages now come
		// from the network's freelist instead of the heap.
		d := in.Pattern.Dest(in.rng, in.Nodes, i)
		size := in.Sizes.sample(in.rng)
		typ := noc.TypeRequest
		if size == in.Sizes.Long {
			typ = noc.TypeResponse
		}
		in.nextID++
		m := in.net.AllocMessage()
		m.ID = in.nextID
		m.Dst = in.Nodes[d].ID
		m.Class = noc.Class(in.rng.Intn(max(1, in.Classes)))
		m.Type = typ
		m.SizeFlits = int32(size)
		node.Inject(m)
	}
}

// Mesh is a synthetic-traffic setup: the Config mesh (a torus when
// Config.Torus) with one core on every router, and an injector over the cores
// that sends Pattern traffic at Rate and spreads messages over one class per
// VC. The experiments, from the paper's Section 3.2 study on, the CLIs and
// the examples build their synthetic-traffic runs from one.
type Mesh struct {
	noc.Config
	// Pattern chooses destinations; nil is UniformRandom.
	Pattern Pattern
	// Rate is the per-core injection probability per cycle.
	Rate float64
	// Seed seeds the injector's random stream.
	Seed int64
}

// Build creates the network with policy installed, and with the policy's
// OnCycle hook when it has one (a learning agent's), and its injector.
func (m Mesh) Build(policy noc.Policy) (*noc.Network, *Injector) {
	net, cores := noc.BuildMeshCores(m.Config)
	net.SetPolicy(policy)
	if oc, ok := policy.(interface{ OnCycle(*noc.Network) }); ok {
		net.OnCycle = oc.OnCycle
	}
	p := m.Pattern
	if p == nil {
		p = UniformRandom{}
	}
	in := NewInjector(cores, p, m.Rate, xrand.New(m.Seed))
	in.Classes = m.VCs
	return net, in
}

// Start builds the network and returns it with a step that injects one cycle
// of traffic and advances the network. Start and StatePorts make a Mesh a
// training environment (core.Env).
func (m Mesh) Start(policy noc.Policy) (*noc.Network, func()) {
	net, in := m.Build(policy)
	return net, func() {
		in.Tick()
		net.Step()
	}
}

// StatePorts names the input ports of a mesh router, the core's and the four
// directions', and the Config's VCs per port.
func (m Mesh) StatePorts() ([]noc.PortID, int) {
	return []noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast}, m.VCs
}

// Evaluate measures the average message latency of policy on the mesh: Run's
// warmup, measured phase and drain.
func (m Mesh) Evaluate(policy noc.Policy, warmup, measure int64) RunResult {
	net, in := m.Build(policy)
	return Run(net, in, warmup, measure)
}

// RunResult reports the measured phase of a synthetic-traffic run.
type RunResult struct {
	AvgLatency float64
	MaxLatency float64
	Delivered  int64
	Injected   int64
	Cycles     int64
}

// Run executes a warmup/measure experiment: warmup cycles with injection
// (stats discarded), then measure cycles with injection, then a drain phase
// of up to 4*measure cycles without injection so in-flight messages finish.
// Latency statistics cover every message injected after warmup.
func Run(net *noc.Network, in *Injector, warmup, measure int64) RunResult {
	for i := int64(0); i < warmup; i++ {
		in.Tick()
		net.Step()
	}
	net.ResetStats()
	for i := int64(0); i < measure; i++ {
		in.Tick()
		net.Step()
	}
	net.Drain(4 * measure)
	st := net.Stats()
	return RunResult{
		AvgLatency: st.Latency.Mean(),
		MaxLatency: st.Latency.Max(),
		Delivered:  st.Delivered,
		Injected:   st.Injected,
		Cycles:     net.Cycle(),
	}
}

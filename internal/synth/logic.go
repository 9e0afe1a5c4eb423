package synth

import "fmt"

// This file implements a small functional gate-level simulator: combinational
// netlists built from NOT/AND/OR/XOR gates, evaluated bit by bit. It exists
// so the paper's Fig. 8 arbiter circuit can be constructed gate by gate and
// proven bit-exact against Algorithm 2 (see fig8.go and the equivalence
// property tests) — the step the paper describes as "distilling everything
// down to logic gates".

// Wire identifies a net in a Netlist.
type Wire int

// Constant wires available in every netlist.
const (
	// WireFalse is the constant-0 net.
	WireFalse Wire = 0
	// WireTrue is the constant-1 net.
	WireTrue Wire = 1
)

type gateKind uint8

const (
	gateNot gateKind = iota
	gateAnd
	gateOr
	gateXor
)

type gate struct {
	kind gateKind
	a, b Wire
	out  Wire
}

// Builder assembles a combinational netlist. Create one with NewBuilder, add
// inputs and gates, mark outputs, then Build.
type Builder struct {
	gates             []gate
	depth             []int // each wire's logic depth, by Wire
	inOrder, outOrder []string
	// ins and outs hold each named bus's wires, LSB first; a single input or
	// output, a bus's bits among them, is a one-wire bus of its own name.
	ins, outs map[string][]Wire
}

// NewBuilder returns an empty builder with the two constant wires allocated.
func NewBuilder() *Builder {
	return &Builder{depth: []int{0, 0}, ins: map[string][]Wire{}, outs: map[string][]Wire{}}
}

// alloc returns a new wire of logic depth d.
func (b *Builder) alloc(d int) Wire {
	b.depth = append(b.depth, d)
	return Wire(len(b.depth) - 1)
}

// bus records ws under name in buses, panicking if the name is taken.
func bus(buses map[string][]Wire, kind, name string, ws []Wire) {
	if _, dup := buses[name]; dup {
		panic("synth: duplicate " + kind + " " + name)
	}
	buses[name] = ws
}

// Input declares a named primary input.
func (b *Builder) Input(name string) Wire {
	w := b.alloc(0)
	bus(b.ins, "input", name, []Wire{w})
	b.inOrder = append(b.inOrder, name)
	return w
}

// InputBus declares width named inputs "name0".."name<width-1>", LSB first.
func (b *Builder) InputBus(name string, width int) []Wire {
	ws := make([]Wire, width)
	for i := range ws {
		ws[i] = b.Input(fmt.Sprintf("%s%d", name, i))
	}
	bus(b.ins, "input", name, ws)
	return ws
}

// Output marks a wire as a named primary output.
func (b *Builder) Output(name string, w Wire) {
	bus(b.outs, "output", name, []Wire{w})
	b.outOrder = append(b.outOrder, name)
}

// OutputBus marks a bus as outputs "name0".., LSB first.
func (b *Builder) OutputBus(name string, ws []Wire) {
	for i, w := range ws {
		b.Output(fmt.Sprintf("%s%d", name, i), w)
	}
	bus(b.outs, "output", name, ws)
}

func (b *Builder) gate2(kind gateKind, x, y Wire) Wire {
	out := b.alloc(max(b.depth[x], b.depth[y]) + 1)
	b.gates = append(b.gates, gate{kind: kind, a: x, b: y, out: out})
	return out
}

// Not returns !x.
func (b *Builder) Not(x Wire) Wire { return b.gate2(gateNot, x, WireFalse) }

// And returns x && y.
func (b *Builder) And(x, y Wire) Wire { return b.gate2(gateAnd, x, y) }

// Or returns x || y.
func (b *Builder) Or(x, y Wire) Wire { return b.gate2(gateOr, x, y) }

// Xor returns x != y.
func (b *Builder) Xor(x, y Wire) Wire { return b.gate2(gateXor, x, y) }

// Mux returns sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi Wire) Wire {
	return b.Or(b.And(sel, hi), b.And(b.Not(sel), lo))
}

// MuxBus muxes two equal-width buses.
func (b *Builder) MuxBus(sel Wire, lo, hi []Wire) []Wire {
	if len(lo) != len(hi) {
		panic("synth: MuxBus width mismatch")
	}
	out := make([]Wire, len(lo))
	for i := range lo {
		out[i] = b.Mux(sel, lo[i], hi[i])
	}
	return out
}

// XorBus XORs every bit of a bus with sel (conditional bit inversion — the
// trick Fig. 8 uses for the hop-count "15-HC" path).
func (b *Builder) XorBus(sel Wire, bus []Wire) []Wire {
	out := make([]Wire, len(bus))
	for i := range bus {
		out[i] = b.Xor(sel, bus[i])
	}
	return out
}

// GreaterThan returns a > b for two equal-width unsigned buses (LSB first):
// a classic ripple comparator from the MSB down.
func (b *Builder) GreaterThan(x, y []Wire) Wire {
	if len(x) != len(y) {
		panic("synth: comparator width mismatch")
	}
	gt := WireFalse
	eq := WireTrue
	for i := len(x) - 1; i >= 0; i-- {
		bitGT := b.And(x[i], b.Not(y[i]))
		gt = b.Or(gt, b.And(eq, bitGT))
		eq = b.And(eq, b.Not(b.Xor(x[i], y[i])))
	}
	return gt
}

// GreaterThanConst returns x > k for an unsigned bus x (LSB first) and a
// constant k. From the LSB up, each run of equal bits of k combines x's bits
// under it by a balanced tree, an AND under ones and an OR under zeros, with
// the comparison of the bits below; so for k = 24 (11000) it is
// (x4&x3)&(x2|x1|x0), the depth growing with k's runs, not x's width.
func (b *Builder) GreaterThanConst(x []Wire, k int) Wire {
	if k >= 1<<len(x) {
		return WireFalse
	}
	gt := WireFalse
	for i := 0; i < len(x); {
		j, one := i, k>>i&1
		for j < len(x) && k>>j&1 == one {
			j++
		}
		op := b.Or
		if one == 1 {
			op = b.And
		}
		switch { // under a run of ones over nothing greater, gt stays false
		case gt != WireFalse:
			gt = op(b.tree(op, x[i:j]), gt)
		case one == 0:
			gt = b.tree(op, x[i:j])
		}
		i = j
	}
	return gt
}

// tree combines ws into one wire by op: a balanced tree.
func (b *Builder) tree(op func(x, y Wire) Wire, ws []Wire) Wire {
	if len(ws) == 1 {
		return ws[0]
	}
	return op(b.tree(op, ws[:len(ws)/2]), b.tree(op, ws[len(ws)/2:]))
}

// saturate returns the low n bits of bus x clamped to their maximum: each
// ORed with the OR of the bits above.
func (b *Builder) saturate(x []Wire, n uint) []Wire {
	if int(n) >= len(x) {
		return x
	}
	over := b.tree(b.Or, x[n:])
	out := make([]Wire, n)
	for i := range out {
		out[i] = b.Or(x[i], over)
	}
	return out
}

// Add returns x + y for two unsigned buses (LSB first), one bit wider than
// the wider of them: a ripple-carry adder. Constant-0 operand bits, such as
// a shift's, cost no gates.
func (b *Builder) Add(x, y []Wire) []Wire {
	n := max(len(x), len(y))
	x, y = padded(x, n), padded(y, n)
	sum := make([]Wire, 0, n+1)
	carry := WireFalse
	for i := 0; i < n; i++ {
		var ops []Wire
		for _, w := range []Wire{x[i], y[i], carry} {
			if w != WireFalse {
				ops = append(ops, w)
			}
		}
		switch len(ops) {
		case 0:
			sum, carry = append(sum, WireFalse), WireFalse
		case 1:
			sum, carry = append(sum, ops[0]), WireFalse
		case 2:
			sum, carry = append(sum, b.Xor(ops[0], ops[1])), b.And(ops[0], ops[1])
		default:
			half := b.Xor(ops[0], ops[1])
			sum = append(sum, b.Xor(half, ops[2]))
			carry = b.Or(b.And(ops[0], ops[1]), b.And(half, ops[2]))
		}
	}
	return append(sum, carry)
}

// Netlist is a built combinational circuit.
type Netlist struct {
	gates             []gate
	nWires            int
	inOrder, outOrder []string
	ins, outs         map[string][]Wire
	maxDepth          int
}

// Build freezes the builder into an evaluable netlist.
func (b *Builder) Build() *Netlist {
	maxDepth := 0
	for _, name := range b.outOrder {
		maxDepth = max(maxDepth, b.depth[b.outs[name][0]])
	}
	return &Netlist{b.gates, len(b.depth), b.inOrder, b.outOrder, b.ins, b.outs, maxDepth}
}

// NumGates returns the gate count of the netlist.
func (n *Netlist) NumGates() int { return len(n.gates) }

// Depth returns the logic depth (gate levels) to the deepest output.
func (n *Netlist) Depth() int { return n.maxDepth }

// InputNames returns the primary inputs in declaration order.
func (n *Netlist) InputNames() []string { return n.inOrder }

// OutputNames returns the primary outputs in declaration order.
func (n *Netlist) OutputNames() []string { return n.outOrder }

// EvalUint evaluates the circuit with unsigned-integer convenience: each
// entry of in assigns a bus ("la" -> la0..laN) or a single input, missing
// ones reading 0, and the named output bus or single output is decoded back
// to an integer. Unknown names panic.
func (n *Netlist) EvalUint(in map[string]uint64, outBus string) uint64 {
	vals := n.values()
	for name, v := range in {
		ws, ok := n.ins[name]
		if !ok {
			panic("synth: unknown input or bus " + name)
		}
		for i, w := range ws {
			vals[w] = v>>i&1 != 0
		}
	}
	n.run(vals)
	ws, ok := n.outs[outBus]
	if !ok {
		panic("synth: unknown output bus " + outBus)
	}
	var val uint64
	for i, w := range ws {
		if vals[w] {
			val |= 1 << i
		}
	}
	return val
}

// values returns every wire's value before evaluation: all false but the
// constant-1 net.
func (n *Netlist) values() []bool {
	vals := make([]bool, n.nWires)
	vals[WireTrue] = true
	return vals
}

// run evaluates the gates in build order over vals.
func (n *Netlist) run(vals []bool) {
	for _, g := range n.gates {
		switch g.kind {
		case gateNot:
			vals[g.out] = !vals[g.a]
		case gateAnd:
			vals[g.out] = vals[g.a] && vals[g.b]
		case gateOr:
			vals[g.out] = vals[g.a] || vals[g.b]
		case gateXor:
			vals[g.out] = vals[g.a] != vals[g.b]
		}
	}
}

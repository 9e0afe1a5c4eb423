package synth

import "fmt"

// This file constructs the paper's Fig. 8 arbiter datapath as an actual
// netlist: the P-block computing a distilled rule's priority level from the
// local-age counter, hop-count field, message-class boost and port-side
// inversion, plus the select-max tree choosing the winning input buffer.
// The equivalence tests prove every named rule's P-block bit-exact against
// Rule.Priority, the arithmetic the simulator arbitrates by, on every input.

// LocalAgeBits is the width of the per-buffer local-age counter (Section
// 4.8): a P-block's la input, saturating at 31.
const LocalAgeBits = 5

// Rule is one distilled arbiter of the paper's family (Section 3.2's mesh
// formulas, Algorithm 2, Fig. 8's P-block): a priority built from shifted,
// saturated local-age and hop-count counters, with an optional per-port hop
// inversion, a class boost and a starvation override. See Priority.
type Rule struct {
	// LABits saturates the local-age term (0 drops it), HopBits the hop
	// count (the header field's width); the shifts weight the two terms.
	LABits, LAShift, HopBits, HCShift uint
	// Starve, when positive, overrides the priority with the local age
	// itself once the age exceeds it (Algorithm 2's forward-progress guard).
	Starve int
	// Boost doubles the priority of the message classes it holds, a bit per
	// noc.MsgType; Invert descends the hop term, hopMax-h, on the input
	// ports it holds, a bit per noc.PortID.
	Boost, Invert uint8
}

// sat clamps v to the largest value of a bits-wide counter.
func sat(v int, bits uint) int { return min(v, 1<<bits-1) }

// Priority returns r's priority level for a buffer whose head message has
// the 5-bit local age la and the hop count hc, of class class, entering on
// input port port:
//
//	p = sat(la, LABits)<<LAShift + h<<HCShift, h = sat(hc, HopBits),
//
// with h inverted on an Invert port and p doubled on a Boost class, or la
// itself when Starve > 0 and la > Starve.
func (r Rule) Priority(la, hc, port, class int) int {
	if r.Starve > 0 && la > r.Starve {
		return la
	}
	h := sat(hc, r.HopBits)
	if r.Invert>>port&1 != 0 {
		h = 1<<r.HopBits - 1 - h
	}
	p := sat(la, r.LABits)<<r.LAShift + h<<r.HCShift
	if r.Boost>>class&1 != 0 {
		p <<= 1
	}
	return p
}

// BuildPBlock constructs the Fig. 8 P-block of rule r, with no gates for
// the fields r leaves unused.
//
// Inputs: la0..la4 (local age), hc0.. (the HopBits-wide hop count), invert
// (the buffer's port is in r.Invert, a constant per buffer) and boost (the
// head's class is in r.Boost). Outputs: p0.., the priority level.
// PBlockPriority drives it.
func BuildPBlock(r Rule) *Netlist {
	b := NewBuilder()
	la := b.InputBus("la", LocalAgeBits)
	h := b.InputBus("hc", int(r.HopBits))
	invert, boost := b.Input("invert"), b.Input("boost")
	if r.Invert != 0 {
		// hopMax-h is h's bitwise complement: XOR with the invert line.
		h = b.XorBus(invert, h)
	}
	p := shifted(h, r.HCShift)
	if r.LABits > 0 {
		p = b.Add(shifted(b.saturate(la, r.LABits), r.LAShift), p)
	}
	if r.Boost != 0 {
		// The boost is a shift by one: pure wiring into the mux.
		p = b.MuxBus(boost, padded(p, len(p)+1), shifted(p, 1))
	}
	if r.Starve > 0 {
		// Starving messages present their local age directly.
		w := max(len(p), LocalAgeBits)
		p = b.MuxBus(b.GreaterThanConst(la, r.Starve), padded(p, w), padded(la, w))
	}
	b.OutputBus("p", p)
	return b.Build()
}

// shifted returns bus x shifted left by n: n constant-0 wires below it.
func shifted(x []Wire, n uint) []Wire {
	return append(make([]Wire, n), x...) // WireFalse is the zero Wire
}

// padded returns bus x zero-extended to at least w bits.
func padded(x []Wire, w int) []Wire {
	return append(x[:len(x):len(x)], make([]Wire, max(w-len(x), 0))...)
}

// PBlockPriority evaluates nl, rule r's P-block, for one buffer: the hop
// count saturates to r's field width, and r's masks turn the port and the
// class into the invert and boost lines.
func PBlockPriority(nl *Netlist, r Rule, la, hc, port, class int) int {
	return int(nl.EvalUint(map[string]uint64{
		"la": uint64(la), "hc": uint64(sat(hc, r.HopBits)),
		"invert": uint64(r.Invert >> port & 1), "boost": uint64(r.Boost >> class & 1),
	}, "p"))
}

// BuildSelectMax constructs the select-max circuit over n width-bit
// priorities, inputs i<k>_0.. for k in [0,n), scanning from the start input
// start0.. (below n): outputs max0.. (the highest priority) and idx0.. (the
// first input holding it in the order start, start+1, .., n-1, 0, ..,
// start-1), the grant of core's selectMax. At width 1 each input is a request
// and the grant is the first requester at or after start: a round-robin
// arbiter whose pointer is start.
//
// A tournament tree compares keys: each input's priority with the bit
// k >= start below it, so that among equal priorities the inputs at or after
// start win, and equal keys keep the lower index.
func BuildSelectMax(n, width int) *Netlist {
	if n < 1 {
		panic("synth: select-max needs at least one input")
	}
	b := NewBuilder()
	type entry struct {
		key []Wire // k >= start, then the priority
		idx []Wire
	}
	idxBits := max(log2ceil(n), 1)
	start := b.InputBus("start", idxBits)
	entries := make([]entry, n)
	for k := range entries {
		ge := b.Not(b.GreaterThanConst(start, k))
		e := entry{key: append([]Wire{ge}, b.InputBus(fmt.Sprintf("i%d_", k), width)...)}
		e.idx = make([]Wire, idxBits)
		for j := range e.idx {
			if k&(1<<j) != 0 {
				e.idx[j] = WireTrue
			}
		}
		entries[k] = e
	}
	for len(entries) > 1 {
		var next []entry
		for i := 0; i+1 < len(entries); i += 2 {
			a, c := entries[i], entries[i+1]
			sel := b.GreaterThan(c.key, a.key) // strict: ties keep a
			next = append(next, entry{
				key: b.MuxBus(sel, a.key, c.key),
				idx: b.MuxBus(sel, a.idx, c.idx),
			})
		}
		if len(entries)%2 == 1 {
			next = append(next, entries[len(entries)-1])
		}
		entries = next
	}
	b.OutputBus("max", entries[0].key[1:])
	b.OutputBus("idx", entries[0].idx)
	return b.Build()
}

// SelectMaxEval evaluates a select-max netlist over concrete priorities
// scanned from start, returning the winning index and priority.
func SelectMaxEval(nl *Netlist, pris []int, start int) (idx, max int) {
	in := make(map[string]uint64, len(pris)+1)
	in["start"] = uint64(start)
	for k, p := range pris {
		in[fmt.Sprintf("i%d_", k)] = uint64(p)
	}
	return int(nl.EvalUint(in, "idx")), int(nl.EvalUint(in, "max"))
}

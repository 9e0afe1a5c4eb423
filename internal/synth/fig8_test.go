package synth

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// algorithm2 is Algorithm 2's shape as a Rule: no local-age term, a 4-bit
// hop count, the starvation override past LA 24, the response and coherence
// classes boosted and the hop term inverted on the north and south ports
// (core's "rl-inspired", the rule Table 3 prices).
var algorithm2 = Rule{HopBits: 4, Starve: 24, Boost: 0b110, Invert: 0b1100}

// TestPBlockExhaustiveEquivalence proves the exact-threshold P-block netlist
// bit-identical to Algorithm 2's priority over its entire input space (5-bit
// age, 4-bit hop count, ports 0-5, classes 0-2), and pins a few levels
// worked by hand from the algorithm's text.
func TestPBlockExhaustiveEquivalence(t *testing.T) {
	nl := BuildPBlock(algorithm2)
	for la := 0; la < 32; la++ {
		for hc := 0; hc < 16; hc++ {
			for port := 0; port < 6; port++ {
				for class := 0; class < 3; class++ {
					want := algorithm2.Priority(la, hc, port, class)
					if got := PBlockPriority(nl, algorithm2, la, hc, port, class); got != want {
						t.Fatalf("P-block(la=%d hc=%d port=%d class=%d) = %d, want %d",
							la, hc, port, class, got, want)
					}
				}
			}
		}
	}
	for _, c := range []struct{ la, hc, port, class, want int }{
		{0, 5, 0, 0, 5},    // request on the core port: the hop count
		{0, 5, 2, 0, 10},   // north port inverts: 15-5
		{0, 5, 0, 1, 10},   // response boosted: 5<<1
		{0, 5, 3, 2, 20},   // south and coherence: (15-5)<<1
		{24, 15, 2, 2, 0},  // at the threshold the override has not fired
		{25, 15, 2, 2, 25}, // past it the local age wins
	} {
		if got := PBlockPriority(nl, algorithm2, c.la, c.hc, c.port, c.class); got != c.want {
			t.Errorf("P-block(la=%d hc=%d port=%d class=%d) = %d, want %d",
				c.la, c.hc, c.port, c.class, got, c.want)
		}
	}
}

// TestPBlockApproxThreshold: the paper's single-AND-gate simplification
// (Starve 23, LA >= 24) differs from Algorithm 2 only at LA == 24, where it
// fires the override early.
func TestPBlockApproxThreshold(t *testing.T) {
	approx := algorithm2
	approx.Starve = 23
	nl := BuildPBlock(approx)
	diffs := 0
	for la := 0; la < 32; la++ {
		for hc := 0; hc < 16; hc++ {
			for port := 0; port < 6; port++ {
				for class := 0; class < 3; class++ {
					want := algorithm2.Priority(la, hc, port, class)
					got := PBlockPriority(nl, approx, la, hc, port, class)
					if got != want {
						if la != 24 {
							t.Fatalf("approx P-block differs at la=%d (not 24)", la)
						}
						if got != 24 {
							t.Fatalf("approx override at la=24 returned %d, want 24", got)
						}
						diffs++
					}
				}
			}
		}
	}
	if diffs == 0 {
		t.Fatal("approx threshold never differed; simplification not exercised")
	}
}

// TestPBlockCost: a P-block, whose own gate count and depth Table 3 prices,
// stays the size of Fig. 8's bottom half: a few dozen gates, a handful of
// levels. The rule is Algorithm 2's shape with the paper's single-AND-gate
// threshold.
func TestPBlockCost(t *testing.T) {
	approx := algorithm2
	approx.Starve = 23
	nl := BuildPBlock(approx)
	if g := nl.NumGates(); g < 15 || g > 70 {
		t.Fatalf("P-block gate count %d outside the modeled magnitude", g)
	}
	if d := nl.Depth(); d < 3 || d > 12 {
		t.Fatalf("P-block depth %d outside the modeled magnitude", d)
	}
}

// TestPBlockOffTableRules holds the P-block to Rule.Priority on shapes no
// named rule has: a saturated narrow age term, a starvation override beside
// an adder, a boost over a sum. (The named rules' proof is in core.)
func TestPBlockOffTableRules(t *testing.T) {
	for _, r := range []Rule{
		{LABits: 3, LAShift: 2, HopBits: 2},
		{LABits: 1, HopBits: 4, HCShift: 1, Starve: 10, Invert: 0b10},
		{LABits: 4, LAShift: 1, HopBits: 3, Boost: 0b10, Starve: 30},
		{HopBits: 1, HCShift: 3, Invert: 0b1, Boost: 0b1},
	} {
		nl := BuildPBlock(r)
		for la := 0; la < 32; la++ {
			for hc := 0; hc < 16; hc++ {
				for port := 0; port < 2; port++ {
					for class := 0; class < 2; class++ {
						want := r.Priority(la, hc, port, class)
						if got := PBlockPriority(nl, r, la, hc, port, class); got != want {
							t.Fatalf("%+v: P-block(la=%d hc=%d port=%d class=%d) = %d, want %d",
								r, la, hc, port, class, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGreaterThanConstExhaustive checks x > k for every 5-bit x and every k
// up to past the bus's range, and the shape the P-block's Algorithm 2
// threshold needs: 4 gates at depth 3 for k = 24, one AND for k = 23.
func TestGreaterThanConstExhaustive(t *testing.T) {
	for k := 0; k < 34; k++ {
		b := NewBuilder()
		b.Output("gt", b.GreaterThanConst(b.InputBus("x", 5), k))
		nl := b.Build()
		for x := 0; x < 32; x++ {
			want := uint64(0)
			if x > k {
				want = 1
			}
			if got := nl.EvalUint(map[string]uint64{"x": uint64(x)}, "gt"); got != want {
				t.Fatalf("%d > %d = %d, want %d", x, k, got, want)
			}
		}
		switch k {
		case 24:
			if nl.NumGates() != 4 || nl.Depth() != 3 {
				t.Errorf("x > 24: %d gates at depth %d, want 4 at depth 3", nl.NumGates(), nl.Depth())
			}
		case 23:
			if nl.NumGates() != 1 || nl.Depth() != 1 {
				t.Errorf("x > 23: %d gates at depth %d, want 1 at depth 1", nl.NumGates(), nl.Depth())
			}
		}
	}
}

// TestAddExhaustive checks the ripple adder on the 4x4 mesh rule's operands,
// (x<<1) + (y<<1) for a 5-bit x and a 3-bit y, where the shifted-in zeros
// cost nothing: 16 gates.
func TestAddExhaustive(t *testing.T) {
	b := NewBuilder()
	x := b.InputBus("x", 5)
	y := b.InputBus("y", 3)
	b.OutputBus("s", b.Add(shifted(x, 1), shifted(y, 1)))
	nl := b.Build()
	for a := 0; a < 32; a++ {
		for c := 0; c < 8; c++ {
			got := nl.EvalUint(map[string]uint64{"x": uint64(a), "y": uint64(c)}, "s")
			if want := uint64(a<<1 + c<<1); got != want {
				t.Fatalf("%d<<1 + %d<<1 = %d, want %d", a, c, got, want)
			}
		}
	}
	if nl.NumGates() != 16 {
		t.Errorf("adder: %d gates, want 16", nl.NumGates())
	}
}

// rotatedArgmax is core's selectMax over plain priorities: the first
// highest in the order start, start+1, .., wrapping to 0.
func rotatedArgmax(pris []int, start int) (idx, max int) {
	idx = start
	for k := 1; k < len(pris); k++ {
		if i := (start + k) % len(pris); pris[i] > pris[idx] {
			idx = i
		}
	}
	return idx, pris[idx]
}

// TestSelectMaxExhaustiveSmall: 3 inputs of 3 bits, every start: 3x512
// cases, start 0 giving the lowest-index tie-break.
func TestSelectMaxExhaustiveSmall(t *testing.T) {
	nl := BuildSelectMax(3, 3)
	for start := 0; start < 3; start++ {
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				for c := 0; c < 8; c++ {
					vals := []int{a, b, c}
					idx, max := SelectMaxEval(nl, vals, start)
					wantIdx, wantMax := rotatedArgmax(vals, start)
					if max != wantMax {
						t.Fatalf("max(%d,%d,%d) = %d, want %d", a, b, c, max, wantMax)
					}
					if idx != wantIdx {
						t.Fatalf("argmax(%d,%d,%d) from %d = %d, want %d", a, b, c, start, idx, wantIdx)
					}
				}
			}
		}
	}
}

func TestQuickSelectMax42(t *testing.T) {
	// The full router-scale tree: 42 inputs of 5 bits, from start 0 and
	// from a drawn start.
	nl := BuildSelectMax(42, 5)
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pris := make([]int, 42)
		for i := range pris {
			pris[i] = r.Intn(32)
		}
		for _, start := range []int{0, r.Intn(42)} {
			idx, max := SelectMaxEval(nl, pris, start)
			if wantIdx, wantMax := rotatedArgmax(pris, start); idx != wantIdx || max != wantMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestNetlistBuilderBasics(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	b.Output("and", b.And(x, y))
	b.Output("or", b.Or(x, y))
	b.Output("xor", b.Xor(x, y))
	b.Output("notx", b.Not(x))
	nl := b.Build()
	for _, tc := range []struct {
		x, y               bool
		and, or, xor, notx bool
	}{
		{false, false, false, false, false, true},
		{true, false, false, true, true, false},
		{false, true, false, true, true, true},
		{true, true, true, true, false, false},
	} {
		in := map[string]uint64{"x": bit(tc.x), "y": bit(tc.y)}
		for _, o := range []struct {
			name string
			want bool
		}{{"and", tc.and}, {"or", tc.or}, {"xor", tc.xor}, {"notx", tc.notx}} {
			if got := nl.EvalUint(in, o.name); got != bit(o.want) {
				t.Fatalf("x=%v y=%v: %s = %d, want %v", tc.x, tc.y, o.name, got, o.want)
			}
		}
	}
	if len(nl.InputNames()) != 2 || len(nl.OutputNames()) != 4 {
		t.Fatal("name bookkeeping wrong")
	}
}

// bit is b as a one-bit bus value.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestGreaterThanExhaustive(t *testing.T) {
	b := NewBuilder()
	x := b.InputBus("x", 4)
	y := b.InputBus("y", 4)
	b.Output("gt", b.GreaterThan(x, y))
	nl := b.Build()
	for a := 0; a < 16; a++ {
		for c := 0; c < 16; c++ {
			out := nl.EvalUint(map[string]uint64{"x": uint64(a), "y": uint64(c)}, "gt")
			want := uint64(0)
			if a > c {
				want = 1
			}
			if out != want {
				t.Fatalf("%d > %d = %d, want %d", a, c, out, want)
			}
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	for _, f := range []func(){
		func() { b := NewBuilder(); b.Input("a"); b.Input("a") },
		func() { b := NewBuilder(); b.Input("a"); b.InputBus("a", 1) },
		func() { b := NewBuilder(); b.Output("o", WireTrue); b.OutputBus("o", []Wire{WireFalse}) },
		func() {
			b := NewBuilder()
			w := b.Input("a")
			b.Output("o", w)
			b.Output("o", w)
		},
		func() { b := NewBuilder(); b.MuxBus(WireTrue, []Wire{WireFalse}, nil) },
		func() { b := NewBuilder(); b.GreaterThan([]Wire{WireTrue}, nil) },
		func() { BuildSelectMax(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEvalUnknownNamesPanic(t *testing.T) {
	b := NewBuilder()
	b.Output("o", b.Input("a"))
	nl := b.Build()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown input accepted")
			}
		}()
		nl.EvalUint(map[string]uint64{"zzz": 1}, "o")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown output bus accepted")
			}
		}()
		nl.EvalUint(map[string]uint64{"a": 1}, "nope")
	}()
}

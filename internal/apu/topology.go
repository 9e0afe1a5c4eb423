// Package apu models the paper's baseline APU system (Section 4.1, Fig. 6):
// a CPU+GPU chip whose GPU cluster is a 2D mesh of compute-unit tiles, each
// tile also hosting a GPU L2 bank, a shared GPU L1I cache or a coherence
// directory with its memory controller, with one CPU core and one CPU LLC
// hanging off free edge ports in every quadrant.
//
// The package implements the coherence-style message flows between those
// endpoints over seven network classes (one virtual channel each), the
// bounded outstanding-request windows that couple NoC latency to execution
// time, and a Runner that executes synfull workload instances — one per
// quadrant, as in the paper's multi-program scenario — and reports average
// and tail program execution time (Sections 4.2 and 5).
package apu

import (
	"fmt"
	"math"
	"math/rand"

	"mlnoc/internal/noc"
	"mlnoc/internal/synfull"
)

// Message classes of the APU protocol. Each class travels in its own virtual
// channel; the paper's system needs seven classes for coherence (Section
// 4.1). Requests and coherence messages are 1 flit, data responses 5 flits.
const (
	// ClassGPUReq carries CU -> GPU L2 / L1I requests.
	ClassGPUReq noc.Class = iota
	// ClassGPUResp carries GPU L2 / L1I -> CU data responses.
	ClassGPUResp
	// ClassMemReq carries cache -> directory requests (L2 and LLC misses,
	// write-through traffic).
	ClassMemReq
	// ClassMemResp carries directory -> cache data responses.
	ClassMemResp
	// ClassCoh carries directory <-> CU coherence probes and acks.
	ClassCoh
	// ClassCPUReq carries CPU -> LLC requests.
	ClassCPUReq
	// ClassCPUResp carries LLC -> CPU data responses.
	ClassCPUResp

	// NumClasses is the number of message classes / virtual channels.
	NumClasses = 7
)

// Message flit sizes (Section 4.1: requests and coherence 1 flit, data 5).
const (
	ReqFlits  = 1
	DataFlits = 5
)

// Config describes an APU system.
type Config struct {
	// QuadSide is the quadrant edge length in tiles; the chip is a
	// (2*QuadSide) x (2*QuadSide) mesh. The paper's system has QuadSide 4
	// (64 CUs); the minimum is 3, which keeps at least one L2 column per
	// quadrant.
	QuadSide int
	// BufferCap is the per-VC input buffer capacity in messages.
	BufferCap int
}

func (c *Config) applyDefaults() {
	if c.QuadSide == 0 {
		c.QuadSide = 4
	}
	if c.QuadSide < 3 {
		panic("apu: QuadSide must be at least 3 (one L2 column per quadrant)")
	}
	if c.BufferCap == 0 {
		// Two-message VC buffers model flit-level input buffers that hold at
		// most a couple of data messages — the regime where arbitration
		// separates policies through HOL blocking and congestion trees.
		c.BufferCap = 2
	}
}

// Quadrant groups the endpoints of one chip quadrant. GPU L2 banks are
// private to their quadrant (Section 4.2: "cache coherence traffic does not
// cross the quadrant boundaries"), while directories are shared chip-wide.
type Quadrant struct {
	Index int
	CUs   []*CU
	L2s   []*Bank
	L1Is  []*Bank
	Dirs  []*Bank
	CPU   *CPU
	LLC   *Bank

	// inst is the workload instance running in the quadrant; each NewRunner
	// on the system resets it in place.
	inst synfull.Instance
}

// System is the assembled APU chip.
type System struct {
	Cfg Config
	Net *noc.Network

	CUs  []*CU
	L2s  []*Bank
	L1Is []*Bank
	Dirs []*Bank
	LLCs []*Bank
	CPUs []*CPU

	Quadrants [4]*Quadrant

	isL2  []bool   // by NodeID: the node is a GPU L2 bank
	banks []*Bank  // every bank: L2s, L1Is, directories, then LLCs
	busy  []uint64 // bit i set iff banks[i] holds a queued reply

	// params holds the active phase parameters per quadrant; the Runner
	// refreshes them every cycle.
	params [4]PhaseParams

	nextID uint64
}

// NewSystem builds the chip topology and wires every endpoint's protocol
// handler. Install an arbitration policy on sys.Net before running.
//
// seed is unused: the topology is fixed by cfg, and every random draw of the
// protocol (op mix, hit outcomes, bank and directory choice, coherence) comes
// from the per-CU and per-CPU streams that NewRunner seeds from
// RunnerConfig.Seed. The parameter stays because callers pass it.
func NewSystem(cfg Config, seed int64) *System {
	cfg.applyDefaults()
	s := cfg.QuadSide
	w := 2 * s
	sys := &System{
		Cfg: cfg,
		Net: noc.New(noc.Config{
			Width: w, Height: w, VCs: NumClasses, BufferCap: cfg.BufferCap,
		}),
	}
	for q := 0; q < 4; q++ {
		sys.Quadrants[q] = &Quadrant{Index: q}
	}

	// Tiles: every router hosts a CU on its core port and a memory-side node
	// on its mem port. Within each quadrant, the chip-edge column hosts the
	// directories (with their memory controllers), the chip-center column
	// hosts the shared L1I caches, and the middle columns host GPU L2 banks
	// (Fig. 6b).
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			q := quadrantOf(x, y, s)
			quad := sys.Quadrants[q]

			cuNode := sys.Net.AttachNode(x, y, noc.PortCore, noc.DstCore, "CU/L1D")
			cu := &CU{Node: cuNode, sys: sys, quad: quad}
			cu.opRNG, cu.cycRNG = rand.New(&cu.opSrc), rand.New(&cu.cycSrc)
			cuNode.Sink = cu.sink
			sys.CUs = append(sys.CUs, cu)
			quad.CUs = append(quad.CUs, cu)

			var kind noc.DstType
			var label string
			left := x < s
			edgeCol := (left && x == 0) || (!left && x == w-1)
			centerCol := (left && x == s-1) || (!left && x == s)
			switch {
			case edgeCol:
				kind, label = noc.DstMemory, "Dir"
			case centerCol:
				kind, label = noc.DstCache, "L1I"
			default:
				kind, label = noc.DstCache, "L2"
			}
			node := sys.Net.AttachNode(x, y, noc.PortMem, kind, label)
			bank := newBank(sys, node, label, quad)
			switch label {
			case "Dir":
				sys.Dirs = append(sys.Dirs, bank)
				quad.Dirs = append(quad.Dirs, bank)
			case "L1I":
				sys.L1Is = append(sys.L1Is, bank)
				quad.L1Is = append(quad.L1Is, bank)
			case "L2":
				sys.L2s = append(sys.L2s, bank)
				quad.L2s = append(quad.L2s, bank)
			}
		}
	}

	// CPU clusters: each quadrant gets a CPU core node and a CPU LLC node on
	// free edge ports (north edge for the top quadrants, south edge for the
	// bottom ones), making those routers the paper's six-port routers.
	for q := 0; q < 4; q++ {
		quad := sys.Quadrants[q]
		top := q < 2
		baseX := (q % 2) * s
		y, port := 0, noc.PortNorth
		if !top {
			y, port = w-1, noc.PortSouth
		}
		cpuNode := sys.Net.AttachNode(baseX+1, y, port, noc.DstCore, "CPU")
		llcNode := sys.Net.AttachNode(baseX+2, y, port, noc.DstCache, "LLC")
		cpu := &CPU{Node: cpuNode, sys: sys, quad: quad}
		cpu.rateRNG, cpu.opRNG = rand.New(&cpu.rateSrc), rand.New(&cpu.opSrc)
		cpuNode.Sink = cpu.sink
		llc := newBank(sys, llcNode, "LLC", quad)
		quad.CPU, quad.LLC = cpu, llc
		sys.CPUs = append(sys.CPUs, cpu)
		sys.LLCs = append(sys.LLCs, llc)
	}

	// Each group of CUs shares one L1I within its quadrant (Section 4.1:
	// "GPU L1 instruction caches are shared by every four CUs").
	for _, quad := range sys.Quadrants {
		for i, cu := range quad.CUs {
			cu.l1i = quad.L1Is[i*len(quad.L1Is)/len(quad.CUs)]
		}
	}

	nodes := len(sys.Net.Nodes())
	if nodes > math.MaxUint16 {
		panic(fmt.Sprintf("apu: %d nodes do not fit the protocol records' 16-bit node indices", nodes))
	}
	sys.isL2 = make([]bool, nodes)
	for _, b := range sys.L2s {
		sys.isL2[b.Node.ID] = true
	}
	sys.banks = make([]*Bank, 0, len(sys.L2s)+len(sys.L1Is)+len(sys.Dirs)+len(sys.LLCs))
	sys.banks = append(sys.banks, sys.L2s...)
	sys.banks = append(sys.banks, sys.L1Is...)
	sys.banks = append(sys.banks, sys.Dirs...)
	sys.banks = append(sys.banks, sys.LLCs...)
	for i, b := range sys.banks {
		b.idx = i
	}
	sys.busy = make([]uint64, (len(sys.banks)+63)/64)
	return sys
}

// quadrantOf maps a tile coordinate to its quadrant index:
// 0 = top-left, 1 = top-right, 2 = bottom-left, 3 = bottom-right.
func quadrantOf(x, y, quadSide int) int {
	q := 0
	if x >= quadSide {
		q++
	}
	if y >= quadSide {
		q += 2
	}
	return q
}

// String implements fmt.Stringer.
func (s *System) String() string {
	return fmt.Sprintf("apu: %dx%d mesh, %d CUs, %d L2, %d L1I, %d Dir, %d CPU clusters",
		2*s.Cfg.QuadSide, 2*s.Cfg.QuadSide,
		len(s.CUs), len(s.L2s), len(s.L1Is), len(s.Dirs), len(s.CPUs))
}

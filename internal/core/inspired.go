package core

import (
	"fmt"

	"mlnoc/internal/noc"
)

// Hardware counter widths used by the RL-inspired arbiters (Section 4.8):
// a 5-bit saturating local-age counter per input buffer and a 4-bit hop-count
// field carried in the header flit.
const (
	// LocalAgeBits is the width of the per-buffer local age counter.
	LocalAgeBits = 5
	// LocalAgeMax is the saturation value of the local age counter (31).
	LocalAgeMax = 1<<LocalAgeBits - 1
	// HopBits is the width of the hop-count header field.
	HopBits = 4
	// HopMax is the saturation value of the hop counter (15).
	HopMax = 1<<HopBits - 1
	// StarvationThreshold is Algorithm 2's local-age override threshold
	// (binary 11000 = 24), compared strictly: LA > 24. The paper's AND of the
	// two MSBs, LA >= 24, is synth.PBlockOptions.ApproxThreshold (45 gates to 48).
	StarvationThreshold = 24
)

// hwLocalAge returns the saturating 5-bit local age of m.
func hwLocalAge(now int64, m *noc.Message) int {
	la := m.LocalAge(now)
	if la > LocalAgeMax {
		return LocalAgeMax
	}
	return int(la)
}

// hwHopCount returns the saturating hop count of m at the given bit width.
func hwHopCount(m *noc.Message, maxVal int) int {
	if m.HopCount > maxVal {
		return maxVal
	}
	return m.HopCount
}

// selectMax returns the index of the candidate with the highest priority as
// computed by pri — the select-max circuit of Fig. 8. Ties are broken by a
// scan start that rotates with the cycle count: with narrow (5-bit) priority
// fields, saturated ages tie frequently under heavy congestion, and a fixed
// tie-break would starve the losing buffer; rotating the start is the
// standard one-mux hardware remedy and restores round-robin fairness among
// equal-priority requesters.
func selectMax(now int64, cands []noc.Candidate, pri func(noc.Candidate) int) int {
	n := len(cands)
	start := int(now % int64(n))
	best := start
	bestP := pri(cands[start])
	for k := 1; k < n; k++ {
		i := (start + k) % n
		if p := pri(cands[i]); p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// RLInspiredMesh is the Section 3.2 RL-inspired arbiter for simple meshes
// under synthetic traffic: priority = (local_age << LAShift) +
// (hop_count << HCShift), computable with constant shifts and one narrow add.
//
// The paper derives (LAShift=1, HCShift=1) for the 4x4 mesh, where local age
// and hop count carry similar weight in the trained network, and
// (LAShift=0, HCShift=2) for the 8x8 mesh, where the longer routes make hop
// count the better proxy for global age.
type RLInspiredMesh struct {
	LAShift, HCShift uint
	// HopBits is the hop counter width (paper: 3 bits for the 4x4 mesh).
	HopBits uint
	// CoreBonus implements the paper's footnote 1: Fig. 4's heatmap weights
	// the core (injection) port heavily, suggesting extra priority for new
	// requests entering from the local core. A non-zero value is added to
	// the priority of candidates on the core port.
	CoreBonus int
	label     string
}

// NewRLInspiredMesh4x4 returns the paper's 4x4-mesh policy:
// priority = (local_age << 1) + (hop_count << 1), 5-bit LA, 3-bit HC.
func NewRLInspiredMesh4x4() *RLInspiredMesh {
	return &RLInspiredMesh{LAShift: 1, HCShift: 1, HopBits: 3, label: "rl-inspired-4x4"}
}

// NewRLInspiredMesh8x8 returns the paper's 8x8-mesh policy:
// priority = local_age + (hop_count << 2), 5-bit LA, 4-bit HC.
func NewRLInspiredMesh8x8() *RLInspiredMesh {
	return &RLInspiredMesh{LAShift: 0, HCShift: 2, HopBits: 4, label: "rl-inspired-8x8"}
}

// Name implements noc.Policy.
func (p *RLInspiredMesh) Name() string {
	if p.label == "" {
		return fmt.Sprintf("rl-inspired-mesh(la<<%d,hc<<%d)", p.LAShift, p.HCShift)
	}
	return p.label
}

// Priority returns the hardware priority level of message m.
func (p *RLInspiredMesh) Priority(now int64, m *noc.Message) int {
	hopMax := 1<<p.HopBits - 1
	return hwLocalAge(now, m)<<p.LAShift + hwHopCount(m, hopMax)<<p.HCShift
}

// PriorityAt returns the priority of message m entering on port in,
// including the footnote-1 core bonus when configured.
func (p *RLInspiredMesh) PriorityAt(now int64, in noc.PortID, m *noc.Message) int {
	pri := p.Priority(now, m)
	if in == noc.PortCore {
		pri += p.CoreBonus
	}
	return pri
}

// Select implements noc.Policy.
func (p *RLInspiredMesh) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	return selectMax(ctx.Cycle, cands, func(c noc.Candidate) int {
		return p.PriorityAt(ctx.Cycle, c.Port, c.Msg)
	})
}

// BoostClass reports whether a message belongs to the classes Algorithm 2
// boosts: coherence messages and response messages (the paper's GPU
// coherence, memory response and GPU L2 response classes — "draining these
// out of the NoC as quickly as possible tends to unblock stalled
// computation").
func BoostClass(m *noc.Message) bool {
	return m.Type == noc.TypeCoherence || m.Type == noc.TypeResponse
}

// RLInspiredAPU is Algorithm 2, the paper's final arbiter for the APU system,
// distilled from the Fig. 7 heatmap analysis:
//
//  1. Starvation override: any message whose 5-bit local age exceeds 24
//     (both MSBs set) is prioritized by its local age alone, guaranteeing
//     forward progress (Section 6.4).
//  2. Coherence and response messages get their priority doubled (one shift).
//  3. Hop count sets the base priority — ascending for messages entering on
//     core/memory/north/south ports, but *descending* (bit-inverted) for
//     west/east ports, reflecting the trained network's negative hop-count
//     weights on W/E ports under X-Y routing.
//
// The Defeature* fields remove individual ingredients to reproduce the
// Section 5.1 ablation.
type RLInspiredAPU struct {
	// DefeaturePort disables the port-asymmetric hop-count inversion (Line 6
	// of Algorithm 2 removed).
	DefeaturePort bool
	// DefeatureMsgType disables the coherence/response boost (Lines 7 and 14
	// removed).
	DefeatureMsgType bool
	// InvertNorthSouth mirrors the port rule: the hop-count inversion is
	// applied on the north/south ports instead of west/east. The paper's
	// Algorithm 2 inverts W/E, a rule its authors traced to the interaction
	// of their traffic with X-Y routing; re-deriving the rule with the
	// paper's methodology on this repository's substrate (different tile map
	// and protocol flows) can yield the mirrored asymmetry.
	InvertNorthSouth bool
}

// NewRLInspiredAPU returns the repository's production Algorithm 2 variant:
// the port-asymmetric hop rule re-derived, with the paper's methodology, for
// this repository's substrate. Our tile map routes the long-haul directory
// and write-through traffic along the X dimension, the mirror image of the
// paper's system, so the re-derived rule inverts hop count on the north/south
// ports instead of west/east. Use NewRLInspiredAPUPaper for the verbatim
// Algorithm 2.
func NewRLInspiredAPU() *RLInspiredAPU {
	return &RLInspiredAPU{InvertNorthSouth: true}
}

// NewRLInspiredAPUPaper returns Algorithm 2 exactly as printed in the paper
// (hop-count inversion on the west/east ports).
func NewRLInspiredAPUPaper() *RLInspiredAPU { return &RLInspiredAPU{} }

// Name implements noc.Policy.
func (p *RLInspiredAPU) Name() string {
	base := "rl-inspired"
	if !p.InvertNorthSouth && !p.DefeaturePort {
		base = "rl-inspired-paper-we"
	}
	switch {
	case p.DefeaturePort && p.DefeatureMsgType:
		return base + "(-port,-msgtype)"
	case p.DefeaturePort:
		return base + "(-port)"
	case p.DefeatureMsgType:
		return base + "(-msgtype)"
	}
	return base
}

// Priority computes Algorithm 2's priority level for a message arriving on
// the given input port. The result fits in 5 bits: hop counts are 4-bit and
// the boost shift produces at most 30, while the starvation override yields
// 25..31.
func (p *RLInspiredAPU) Priority(now int64, in noc.PortID, m *noc.Message) int {
	la := hwLocalAge(now, m)
	if la > StarvationThreshold {
		return la
	}
	hc := hwHopCount(m, HopMax)
	base := hc
	invert := in == noc.PortWest || in == noc.PortEast
	if p.InvertNorthSouth {
		invert = in == noc.PortNorth || in == noc.PortSouth
	}
	if !p.DefeaturePort && invert {
		base = HopMax - hc // bit inversion of the 4-bit hop counter
	}
	if !p.DefeatureMsgType && BoostClass(m) {
		return base << 1
	}
	return base
}

// Select implements noc.Policy.
func (p *RLInspiredAPU) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	return selectMax(ctx.Cycle, cands, func(c noc.Candidate) int {
		return p.Priority(ctx.Cycle, c.Port, c.Msg)
	})
}

// NaiveLatencyArbiter is the cautionary counter-example of Section 6.4: it
// always prioritizes the *newest* message (smallest local age), the behaviour
// an agent trained on a completed-messages-only latency reward learns. It
// starves old messages and is used by the starvation tests and the
// starvation experiment; never use it for real arbitration.
type NaiveLatencyArbiter struct{}

// Name implements noc.Policy.
func (NaiveLatencyArbiter) Name() string { return "naive-newest-first" }

// Select implements noc.Policy.
func (NaiveLatencyArbiter) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	best := 0
	for i, c := range cands[1:] {
		if c.Msg.ArrivalCycle > cands[best].Msg.ArrivalCycle {
			best = i + 1
		}
	}
	return best
}

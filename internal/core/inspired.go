package core

import (
	"fmt"

	"mlnoc/internal/noc"
	"mlnoc/internal/synth"
)

// hwLocalAge returns the saturating 5-bit local age of m (Section 4.8).
func hwLocalAge(now int64, m *noc.Message) int {
	return int(min(m.LocalAge(now), 1<<synth.LocalAgeBits-1))
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

// RulePolicy arbitrates by a distilled rule under the name the figures
// print: selectMax picks the candidate of highest rule priority, the same
// the rule's P-block computes (TestRulesMatchTheirPBlocks).
type RulePolicy struct {
	name string
	rule synth.Rule
}

// Name implements noc.Policy.
func (p *RulePolicy) Name() string { return p.name }

// Rule returns the rule p arbitrates by.
func (p *RulePolicy) Rule() synth.Rule { return p.rule }

// Priority returns the priority level of message m entering on port in.
func (p *RulePolicy) Priority(now int64, in noc.PortID, m *noc.Message) int {
	return p.rule.Priority(hwLocalAge(now, m), int(m.HopCount), int(in), int(m.Type))
}

// Select implements noc.Policy.
func (p *RulePolicy) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	return selectMax(ctx.Cycle, cands, func(c noc.Candidate) int {
		return p.Priority(ctx.Cycle, c.Port, c.Msg)
	})
}

// apuRule is Algorithm 2, the paper's final APU arbiter, distilled from the
// Fig. 7 heatmap: a 4-bit hop count sets the priority, descending on the
// invert ports; the boost classes' priority doubles; a message whose local
// age exceeds starve (24: binary 11000) is prioritized by its age alone,
// which guarantees forward progress (Section 6.4). The result fits in 5 bits.
func apuRule(starve int, boost, invert uint8) synth.Rule {
	return synth.Rule{HopBits: 4, Starve: starve, Boost: boost, Invert: invert}
}

// Algorithm 2 boosts coherence and responses ("draining these out of the NoC
// as quickly as possible tends to unblock stalled computation").
const (
	boosted    = 1<<noc.TypeResponse | 1<<noc.TypeCoherence
	northSouth = 1<<noc.PortNorth | 1<<noc.PortSouth
	westEast   = 1<<noc.PortWest | 1<<noc.PortEast
)

// Rules are the paper's distilled arbiters, by the names the figures print.
var Rules = []RulePolicy{
	// Section 3.2's mesh rules: on the 4x4 mesh local age and hop count
	// carry similar weight in the trained network, (la<<1)+(hc<<1) with a
	// 3-bit hop field; on the 8x8 mesh the longer routes make hop count the
	// better proxy for global age, la+(hc<<2).
	{"rl-inspired-4x4", synth.Rule{LABits: 5, LAShift: 1, HopBits: 3, HCShift: 1}},
	{"rl-inspired-8x8", synth.Rule{LABits: 5, HopBits: 4, HCShift: 2}},
	// Algorithm 2 as this repository runs it. Its tile map routes the
	// long-haul directory and write-through traffic along X, the mirror
	// image of the paper's system, so the rule re-derived with the paper's
	// method inverts hop count on the north/south ports.
	{"rl-inspired", apuRule(24, boosted, northSouth)},
	// Algorithm 2 as printed: the inversion on the west/east ports.
	{"rl-inspired-paper-we", apuRule(24, boosted, westEast)},
	// Section 5.1's de-featured variants: the port condition (Line 6) or the
	// message-type boost (Lines 7 and 14) removed.
	{"rl-inspired(-port)", apuRule(24, boosted, 0)},
	{"rl-inspired(-msgtype)", apuRule(24, 0, northSouth)},
	// Section 4.8's simplification: the override fires when both local-age
	// MSBs are set, LA >= 24, one AND gate instead of the strict LA > 24.
	{"rl-inspired(and-threshold)", apuRule(23, boosted, northSouth)},
}

// NamedRule returns a new policy of the distilled arbiter of Rules named
// name; it panics on a name the table does not hold.
func NamedRule(name string) *RulePolicy {
	for _, r := range Rules {
		if r.name == name {
			return &r
		}
	}
	panic(fmt.Sprintf("core: no rule named %q", name))
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

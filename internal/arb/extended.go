package arb

import (
	"mlnoc/internal/noc"
)

// This file implements additional arbiters from the paper's related work
// (Section 7): the wavefront allocator, ping-pong arbitration, and a
// slack-aware policy in the spirit of Aergia. They are extensions beyond the
// paper's Fig. 9 policy set, used by the extended fairness study and
// available to users of the library.

// Wavefront implements a wavefront allocator (Section 7, [34]): a
// router-level matcher that sweeps diagonal "wavefronts" of the input/output
// request matrix, granting every unconflicted request on a diagonal
// simultaneously. The starting diagonal rotates each cycle for fairness. It
// finds a maximal matching but, as the paper notes, its latency grows with
// the number of requesters.
type Wavefront struct {
	match matchScratch // Match's scratch, reused from call to call
}

// NewWavefront creates a wavefront allocator.
func NewWavefront() *Wavefront { return &Wavefront{} }

// Name implements noc.Policy.
func (p *Wavefront) Name() string { return "wavefront" }

// Select implements noc.Policy for the degenerate single-output case (used
// only if the engine bypasses matching): first candidate of the rotating
// diagonal's input.
func (p *Wavefront) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	return int(ctx.Cycle) % len(cands)
}

// Match implements noc.Matcher. The returned slice is valid until the next
// call.
func (p *Wavefront) Match(ctx *noc.MatchContext, reqs []noc.Request) []int {
	grants, rep := p.match.reset(reqs)
	const n = noc.MaxPorts
	var inUsed [n]bool
	start := int(ctx.Cycle) % n
	for k := 0; k < n; k++ {
		for r := range reqs {
			if grants[r] != -1 { // this output is matched already
				continue
			}
			out := int(reqs[r].Out)
			// The wavefront for offset k grants (in, out) pairs on the
			// rotating diagonal in + out ≡ start + k (mod n).
			in := ((start+k-out)%n + n) % n
			if inUsed[in] || rep[r][in] == -1 {
				continue
			}
			inUsed[in] = true
			grants[r] = rep[r][in]
		}
	}
	return grants
}

// PingPong implements ping-pong arbitration (Section 7, [31]): inputs are
// split recursively into two groups and a per-level toggle alternates which
// group is served first, providing fair bandwidth sharing with a tree of
// small arbiters.
type PingPong struct {
	toggles perOutput[uint32] // per (router, output): one toggle bit per level
}

// NewPingPong creates a ping-pong arbiter.
func NewPingPong() *PingPong { return &PingPong{} }

// Name implements noc.Policy.
func (p *PingPong) Name() string { return "ping-pong" }

// Select implements noc.Policy.
func (p *PingPong) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	vcs := ctx.Router.NumVCs()
	nslots := noc.MaxPorts * vcs
	tog := p.toggles.at(ctx.Router.ID(), ctx.Out)

	present := make(map[int]int, len(cands)) // slot -> candidate index
	for i, c := range cands {
		present[slotIndex(c, vcs)] = i
	}
	slot, ok := p.pick(0, 0, nslots, present, tog)
	if !ok {
		return 0 // unreachable: cands is non-empty
	}
	return present[slot]
}

// pick recursively selects a requesting slot in [lo, hi) using the toggle bit
// at the given tree level, flipping the bit of every level it descends
// through (the "ping-pong").
func (p *PingPong) pick(level, lo, hi int, present map[int]int, tog *uint32) (int, bool) {
	if hi-lo == 1 {
		_, ok := present[lo]
		return lo, ok
	}
	mid := (lo + hi + 1) / 2
	first := *tog&(1<<level) == 0
	order := [2][2]int{{lo, mid}, {mid, hi}}
	if !first {
		order[0], order[1] = order[1], order[0]
	}
	for _, seg := range order {
		if slot, ok := p.pick(level+1, seg[0], seg[1], present, tog); ok {
			*tog ^= 1 << level // alternate for the next arbitration
			return slot, true
		}
	}
	return 0, false
}

// SlackAware approximates slack-aware arbitration (Section 7, Das et al.
// [32]): messages whose source has few other requests in flight are likely
// on the critical path (their originator is stalled waiting), so lower
// outstanding-count wins; ties fall back to larger local age.
type SlackAware struct{}

// NewSlackAware creates a slack-aware policy.
func NewSlackAware() *SlackAware { return &SlackAware{} }

// Name implements noc.Policy.
func (p *SlackAware) Name() string { return "slack-aware" }

// Select implements noc.Policy.
func (p *SlackAware) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	best := 0
	bestSlack := ctx.Net.OutstandingFrom(cands[0].Msg.Src)
	for i, c := range cands[1:] {
		s := ctx.Net.OutstandingFrom(c.Msg.Src)
		if s < bestSlack ||
			(s == bestSlack && c.Msg.ArrivalCycle < cands[best].Msg.ArrivalCycle) {
			best, bestSlack = i+1, s
		}
	}
	return best
}

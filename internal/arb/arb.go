// Package arb implements the classical NoC arbitration policies the paper
// compares against: round-robin, FIFO (local age), iSLIP, probabilistic
// distance-based arbitration, global-age and random arbitration.
//
// All policies implement noc.Policy. iSLIP and the wavefront allocator
// (extended.go) additionally implement noc.Matcher, computing a whole-router
// input/output matching per cycle.
package arb

import (
	"math/rand"
	"slices"

	"mlnoc/internal/noc"
)

// slotIndex flattens a (port, vc) pair into a dense per-router slot index
// used by pointer-based policies.
func slotIndex(c noc.Candidate, vcs int) int { return int(c.Port)*vcs + c.VC }

// perOutput is a lazily grown table of per-(router, output-port) state.
type perOutput[T any] struct{ state []T }

func (t *perOutput[T]) at(routerID int, out noc.PortID) *T {
	idx := routerID*noc.MaxPorts + int(out)
	for idx >= len(t.state) {
		var zero T
		t.state = append(t.state, zero)
	}
	return &t.state[idx]
}

// Random grants a uniformly random candidate. It is the weakest reasonable
// baseline and is also used to sanity-check the benchmark harness.
type Random struct {
	rng *rand.Rand
}

// NewRandom creates a Random policy using the given RNG.
func NewRandom(rng *rand.Rand) *Random { return &Random{rng: rng} }

// Name implements noc.Policy.
func (p *Random) Name() string { return "random" }

// Select implements noc.Policy.
func (p *Random) Select(_ *noc.ArbContext, cands []noc.Candidate) int {
	return p.rng.Intn(len(cands))
}

// RoundRobin is the traditional round-robin arbiter: each output port keeps a
// pointer over the input-buffer slots and grants the first requester at or
// after the pointer, then advances the pointer past the winner. It provides
// local fairness but no global equality of service (Section 2.1).
type RoundRobin struct {
	ptr perOutput[int]
}

// NewRoundRobin creates a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements noc.Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Select implements noc.Policy.
func (p *RoundRobin) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	vcs := ctx.Router.NumVCs()
	nslots := noc.MaxPorts * vcs
	ptr := p.ptr.at(ctx.Router.ID(), ctx.Out)
	best, bestDist := 0, nslots+1
	for i, c := range cands {
		d := (slotIndex(c, vcs) - *ptr + nslots) % nslots
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	*ptr = (slotIndex(cands[best], vcs) + 1) % nslots
	return best
}

// FIFO grants the message that arrived at the local router earliest, i.e. the
// message with the largest local age. It is cheap to implement in hardware
// and captures a local notion of age, but local and global age diverge as
// networks grow (Section 3.2).
type FIFO struct{}

// NewFIFO creates a FIFO (oldest-local-arrival-first) policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements noc.Policy.
func (p *FIFO) Name() string { return "fifo" }

// Select implements noc.Policy.
func (p *FIFO) Select(_ *noc.ArbContext, cands []noc.Candidate) int {
	best := 0
	for i, c := range cands[1:] {
		if c.Msg.ArrivalCycle < cands[best].Msg.ArrivalCycle {
			best = i + 1
		}
	}
	return best
}

// GlobalAge grants the message that entered the network earliest. It is the
// paper's strong reference policy: near-ideal for equality of service but
// impractical to implement in on-chip hardware because it requires global
// timestamps (Section 2.1).
type GlobalAge struct{}

// NewGlobalAge creates a global-age (oldest-first) policy.
func NewGlobalAge() *GlobalAge { return &GlobalAge{} }

// Name implements noc.Policy.
func (p *GlobalAge) Name() string { return "global-age" }

// Select implements noc.Policy.
func (p *GlobalAge) Select(_ *noc.ArbContext, cands []noc.Candidate) int {
	best := 0
	for i, c := range cands[1:] {
		if c.Msg.InjectCycle < cands[best].Msg.InjectCycle {
			best = i + 1
		}
	}
	return best
}

// ProbDist approximates probabilistic distance-based arbitration (Lee et al.,
// MICRO 2010): a candidate wins with probability proportional to the number
// of hops it has already traversed (plus one), so messages that have crossed
// more of the network — and hence consumed more link bandwidth and are likely
// older — are favored, providing approximate equality of service without
// global timestamps.
type ProbDist struct {
	rng *rand.Rand
}

// NewProbDist creates a probabilistic distance-based policy.
func NewProbDist(rng *rand.Rand) *ProbDist { return &ProbDist{rng: rng} }

// Name implements noc.Policy.
func (p *ProbDist) Name() string { return "probdist" }

// Select implements noc.Policy.
func (p *ProbDist) Select(_ *noc.ArbContext, cands []noc.Candidate) int {
	total := 0
	for _, c := range cands {
		total += int(c.Msg.HopCount) + 1
	}
	pick := p.rng.Intn(total)
	for i, c := range cands {
		pick -= int(c.Msg.HopCount) + 1
		if pick < 0 {
			return i
		}
	}
	return len(cands) - 1 // unreachable
}

// ISLIP implements the iSLIP scheduling algorithm (McKeown, 1999) as a
// router-level matcher: in each of Iterations rounds, every unmatched output
// grants the first requesting unmatched input at or after its grant pointer,
// and every input that received grants accepts the first at or after its
// accept pointer. Pointers advance past the winner only for matches made in
// the first iteration, which is what gives iSLIP its desynchronization
// property.
type ISLIP struct {
	// Iterations is the number of grant/accept rounds per cycle (>= 1).
	Iterations int

	// ptrs holds, by router ID, the router's grant pointers (one per output)
	// and accept pointers (one per input), grown as routers are met.
	ptrs []islipPtrs
	// match is Match's scratch, reused from call to call.
	match matchScratch
}

type islipPtrs struct{ grant, accept [noc.MaxPorts]int }

// matchScratch is a router-level matcher's per-call scratch: the grants it
// returns, valid until its next Match, and rep[r][in], the index within
// reqs[r] of the candidate that represents input port in (the first eligible
// buffer of that port), or -1.
type matchScratch struct {
	grants []int
	rep    [][noc.MaxPorts]int
}

// reset sizes the scratch for reqs and fills it: no grant, and each
// request's representative candidates.
func (s *matchScratch) reset(reqs []noc.Request) (grants []int, rep [][noc.MaxPorts]int) {
	s.grants = slices.Grow(s.grants[:0], len(reqs))[:len(reqs)]
	s.rep = slices.Grow(s.rep[:0], len(reqs))[:len(reqs)]
	for r := range reqs {
		s.grants[r] = -1
		for in := range s.rep[r] {
			s.rep[r][in] = -1
		}
		for ci, c := range reqs[r].Cands {
			if s.rep[r][c.Port] == -1 {
				s.rep[r][c.Port] = ci
			}
		}
	}
	return s.grants, s.rep
}

// NewISLIP creates an iSLIP policy with the given number of iterations
// (values below 1 are treated as 1).
func NewISLIP(iterations int) *ISLIP {
	if iterations < 1 {
		iterations = 1
	}
	return &ISLIP{Iterations: iterations}
}

// Name implements noc.Policy.
func (p *ISLIP) Name() string { return "islip" }

// Select implements noc.Policy. It is only invoked if the engine is not using
// the Matcher interface; it applies a single grant round for one output.
func (p *ISLIP) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	g := &p.at(ctx.Router.ID()).grant
	best, bestDist := 0, noc.MaxPorts+1
	for i, c := range cands {
		d := (int(c.Port) - g[ctx.Out] + noc.MaxPorts) % noc.MaxPorts
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	g[ctx.Out] = (int(cands[best].Port) + 1) % noc.MaxPorts
	return best
}

// at returns the pointers of router routerID, all 0 the first time.
func (p *ISLIP) at(routerID int) *islipPtrs {
	for routerID >= len(p.ptrs) {
		p.ptrs = append(p.ptrs, islipPtrs{})
	}
	return &p.ptrs[routerID]
}

// Match implements noc.Matcher. The returned slice is valid until the next
// call.
func (p *ISLIP) Match(ctx *noc.MatchContext, reqs []noc.Request) []int {
	ptrs := p.at(ctx.Router.ID())
	grantPtr, acceptPtr := &ptrs.grant, &ptrs.accept
	result, repCand := p.match.reset(reqs)

	var inMatched, outMatched [noc.MaxPorts]bool
	for iter := 0; iter < p.Iterations; iter++ {
		// Grant phase: each unmatched output picks one requesting unmatched
		// input, round-robin from its grant pointer.
		grantTo := [noc.MaxPorts]int{} // output -> granted input, -1 if none
		for i := range grantTo {
			grantTo[i] = -1
		}
		for r := range reqs {
			out := int(reqs[r].Out)
			if outMatched[out] {
				continue
			}
			best, bestDist := -1, noc.MaxPorts+1
			for in := 0; in < noc.MaxPorts; in++ {
				if inMatched[in] || repCand[r][in] == -1 {
					continue
				}
				d := (in - grantPtr[out] + noc.MaxPorts) % noc.MaxPorts
				if d < bestDist {
					best, bestDist = in, d
				}
			}
			grantTo[out] = best
		}
		// Accept phase: each input that received one or more grants accepts
		// the output closest at or after its accept pointer.
		progress := false
		for in := 0; in < noc.MaxPorts; in++ {
			if inMatched[in] {
				continue
			}
			bestReq, bestOut, bestDist := -1, -1, noc.MaxPorts+1
			for r := range reqs {
				out := int(reqs[r].Out)
				if grantTo[out] != in {
					continue
				}
				d := (out - acceptPtr[in] + noc.MaxPorts) % noc.MaxPorts
				if d < bestDist {
					bestReq, bestOut, bestDist = r, out, d
				}
			}
			if bestReq == -1 {
				continue
			}
			inMatched[in] = true
			outMatched[bestOut] = true
			result[bestReq] = repCand[bestReq][in]
			progress = true
			if iter == 0 {
				grantPtr[bestOut] = (in + 1) % noc.MaxPorts
				acceptPtr[in] = (bestOut + 1) % noc.MaxPorts
			}
		}
		if !progress {
			break
		}
	}
	return result
}

package core

import (
	"math/rand"

	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/xrand"
)

// TabularAgent is a tabular Q-learning arbitration policy — the approach the
// paper's Section 2.2 rules out for this problem because the state space
// cannot be enumerated. It exists to quantify that argument: even after
// aggressive discretization (a few bits per buffer), the table keeps growing
// with every new traffic situation while the DQL agent's parameter count is
// fixed, and at equal training budget the table generalizes worse (every
// state must be visited to be learned).
//
// States are discretized per buffer slot — occupancy, a coarse local-age
// bucket and a coarse hop bucket — and hashed with FNV-1a into the table key.
type TabularAgent struct {
	Spec  *StateSpec
	Table *rl.QTable
	// AgeBits and HopBits control discretization (default 2 bits each).
	AgeBits, HopBits uint
	// Training enables exploration and learning.
	Training bool
	// Epsilon is the exploration rate while training.
	Epsilon float64

	Reward *rl.RewardTracker

	rng     *rand.Rand
	pending map[int64]*tabPending

	decisions int64
}

type tabPending struct {
	state  uint64
	action int
	reward float64
}

// NewTabularAgent creates a tabular agent over the spec's action space.
func NewTabularAgent(spec *StateSpec, seed int64) *TabularAgent {
	return &TabularAgent{
		Spec:     spec,
		Table:    rl.NewQTable(spec.ActionSize(), 0.2, 0.5),
		AgeBits:  2,
		HopBits:  2,
		Training: true,
		Epsilon:  0.05,
		Reward:   rl.NewRewardTracker(rl.RewardGlobalAge),
		rng:      xrand.New(seed),
		pending:  make(map[int64]*tabPending),
	}
}

// Name implements noc.Policy.
func (a *TabularAgent) Name() string { return "q-table" }

// Decisions returns the number of contended arbitrations handled.
func (a *TabularAgent) Decisions() int64 { return a.decisions }

// bucket discretizes v into 2^bits levels with a doubling scale
// (0, 1-2, 3-6, 7+ for 2 bits).
func bucket(v int64, bits uint) uint64 {
	limit := int64(1)
	var b uint64
	for b = 0; b < (1<<bits)-1; b++ {
		if v < limit {
			return b
		}
		limit *= 2 * (int64(b) + 1)
	}
	return b
}

// encode hashes the discretized arbitration state: for every candidate, its
// slot, age bucket and hop bucket (FNV-1a over the tuples).
func (a *TabularAgent) encode(now int64, cands []noc.Candidate) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for _, c := range cands {
		mix(uint64(a.Spec.Slot(c.Port, c.VC)) + 1)
		mix(bucket(c.Msg.LocalAge(now), a.AgeBits))
		mix(bucket(int64(c.Msg.HopCount), a.HopBits))
	}
	return h
}

func (a *TabularAgent) validSlots(cands []noc.Candidate) []int {
	valid := make([]int, len(cands))
	for i, c := range cands {
		valid[i] = a.Spec.Slot(c.Port, c.VC)
	}
	return valid
}

// Select implements noc.Policy.
func (a *TabularAgent) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	a.decisions++
	state := a.encode(ctx.Cycle, cands)
	valid := a.validSlots(cands)

	var slot int
	if a.Training {
		slot = a.Table.EpsilonGreedy(a.rng, state, valid, a.Epsilon)
	} else {
		slot, _ = a.Table.Best(state, valid)
	}
	choice := 0
	for i, s := range valid {
		if s == slot {
			choice = i
			break
		}
	}

	if a.Training {
		key := siteKey(ctx)
		if prev := a.pending[key]; prev != nil {
			a.Table.Update(prev.state, prev.action, prev.reward, state, valid)
		}
		a.pending[key] = &tabPending{
			state:  state,
			action: slot,
			reward: a.Reward.DecisionReward(ctx, cands, choice),
		}
	}
	return choice
}

// OnCycle refreshes the reward tracker; install as the network OnCycle hook.
func (a *TabularAgent) OnCycle(n *noc.Network) { a.Reward.OnCycle(n) }

// Freeze stops exploration and learning.
func (a *TabularAgent) Freeze() { a.Training = false }

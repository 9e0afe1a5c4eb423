package core

import (
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
)

// Recorder implements the data-collection half of the paper's offline
// workflow (Fig. 2): it wraps an arbitrary behaviour policy, lets it make
// every arbitration decision, and records <state, action, reward, next
// state> tuples into an rl.Dataset — the "NoC router states over a large
// number of simulated cycles" the paper's agent was trained on. The recorded
// dataset feeds rl.DQL.TrainOffline.
//
// Because recording is off-policy, any behaviour policy works: round-robin
// gives broad uniform coverage of the decision space; an ε-greedy agent
// gives on-policy data.
type Recorder struct {
	// Behavior makes the actual decisions.
	Behavior noc.Policy
	// Spec lays out states and actions.
	Spec *StateSpec
	// Reward scores decisions (default: global age).
	Reward *rl.RewardTracker
	// Data accumulates the recorded experiences.
	Data *rl.Dataset

	// pending holds, per arbitration site (indexed by siteKey), the last
	// decision awaiting its next state.
	pending []recordedDecision
	// scratch is where each state is built before a copy cut to size is kept.
	scratch nn.SparseVec
}

// recordedDecision is a site's last decision as the recorder keeps it.
type recordedDecision struct {
	state  nn.SparseVec
	action int
	reward float64
	live   bool
}

// NewRecorder wraps behaviour with recording into a fresh dataset.
func NewRecorder(spec *StateSpec, behavior noc.Policy) *Recorder {
	return &Recorder{
		Behavior: behavior,
		Spec:     spec,
		Reward:   rl.NewRewardTracker(rl.RewardGlobalAge),
		Data:     rl.NewDataset(spec.InputSize(), spec.ActionSize()),
	}
}

// Name implements noc.Policy.
func (r *Recorder) Name() string { return r.Behavior.Name() + "+record" }

// Select implements noc.Policy: the behaviour policy decides, the recorder
// logs.
func (r *Recorder) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	r.scratch = r.Spec.BuildSparse(r.scratch, ctx.Net, ctx.Cycle, cands)
	state := r.scratch.Clone()
	choice := r.Behavior.Select(ctx, cands)

	p := pendingAt(&r.pending, siteKey(ctx))
	if p.live {
		valid := make([]int, len(cands))
		for i, c := range cands {
			valid[i] = r.Spec.Slot(c.Port, c.VC)
		}
		r.Data.Add(rl.Experience{
			State:     p.state,
			Action:    p.action,
			Reward:    p.reward,
			Next:      state,
			NextValid: valid,
		})
	}
	*p = recordedDecision{
		state:  state,
		action: r.Spec.Slot(cands[choice].Port, cands[choice].VC),
		reward: r.Reward.DecisionReward(ctx, cands, choice),
		live:   true,
	}
	return choice
}

// OnCycle forwards the reward tracker's per-cycle refresh; install as the
// network hook when using period-based rewards.
func (r *Recorder) OnCycle(n *noc.Network) { r.Reward.OnCycle(n) }

// Flush records all incomplete decisions as terminal experiences, in
// ascending site order, so that a recording is a function of its seed.
func (r *Recorder) Flush() {
	for i := range r.pending {
		if p := &r.pending[i]; p.live {
			r.Data.Add(rl.Experience{State: p.state, Action: p.action, Reward: p.reward, Terminal: true})
			p.live = false
		}
	}
}

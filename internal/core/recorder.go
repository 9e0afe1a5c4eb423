package core

import (
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
)

// Recorder implements the data-collection half of the paper's offline
// workflow (Fig. 2): it wraps an arbitrary behaviour policy, lets it make
// every arbitration decision, and records <state, action, reward, next
// state> tuples into an rl.Dataset — the "NoC router states over a large
// number of simulated cycles" the paper's agent was trained on, each state as
// its Record, paired per site as a training Agent pairs them. The recorded
// dataset feeds rl.DQL.TrainOffline.
//
// Because recording is off-policy, any behaviour policy works: round-robin
// gives broad uniform coverage of the decision space; an ε-greedy agent
// gives on-policy data.
type Recorder struct {
	// Behavior makes the actual decisions.
	Behavior noc.Policy
	// Spec lays out states and actions. It is the recorder's own copy, the
	// one Data decodes with; it must not be changed.
	Spec *StateSpec
	// Reward scores decisions (default: global age).
	Reward *rl.RewardTracker
	// Data accumulates the recorded experiences.
	Data *rl.Dataset

	// pending holds, per arbitration site (indexed by siteKey), the last
	// decision awaiting its next state; rec is the arbitration in hand's
	// record.
	pending []pendingDecision
	rec     []byte
}

// NewRecorder wraps behaviour with recording into a fresh dataset.
func NewRecorder(spec *StateSpec, behavior noc.Policy) *Recorder {
	spec = spec.clone()
	return &Recorder{
		Behavior: behavior,
		Spec:     spec,
		Reward:   rl.NewRewardTracker(rl.RewardGlobalAge),
		Data:     rl.NewDataset(spec.values),
	}
}

// Name implements noc.Policy.
func (r *Recorder) Name() string { return r.Behavior.Name() + "+record" }

// Select implements noc.Policy: the behaviour policy decides, the recorder
// logs.
func (r *Recorder) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	r.rec = r.Spec.Record(r.rec[:0], ctx.Net, ctx.Cycle, cands)
	choice := r.Behavior.Select(ctx, cands)
	p := pendingAt(&r.pending, siteKey(ctx))
	if p.live {
		r.Data.Add(rl.Transition{State: p.rec, Action: p.action, Reward: p.reward, Next: r.rec})
	}
	p.rec = append(p.rec[:0], r.rec...)
	p.action, p.reward, p.live = r.Spec.Slot(cands[choice].Port, cands[choice].VC), r.Reward.DecisionReward(ctx, cands, choice), true
	return choice
}

// OnCycle forwards the reward tracker's per-cycle refresh; install as the
// network hook when using period-based rewards.
func (r *Recorder) OnCycle(n *noc.Network) { r.Reward.OnCycle(n) }

// Flush records all incomplete decisions as terminal experiences
// (flushPending).
func (r *Recorder) Flush() { flushPending(r.pending, r.Data.Add) }

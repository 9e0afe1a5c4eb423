package core

import (
	"math/rand"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/xrand"
)

// Agent is the shared RL arbitration agent (Section 3.1.1 / Algorithm 1).
// One Agent — one set of neural-network weights — serves every output port of
// every router: each arbitration builds the router's state vector, the
// network produces a Q-value per input-buffer slot, and the output port is
// granted to the competing buffer with the highest Q-value (with ε-greedy
// exploration while training).
//
// In training mode the agent records <s, a, r, s'> experiences — the next
// state of a decision is the state observed at the same (router, output)
// site's following arbitration — and runs one replay batch per cycle through
// its OnCycle hook.
type Agent struct {
	// Spec lays out states and actions. It is the agent's own copy, taken by
	// NewAgent and NewAgentWithNet, of the spec it was built with: the replay
	// ring keeps the agent's arbitrations as Records and decodes them with
	// it, so changing the caller's spec afterwards cannot reinterpret a
	// stored record. It must not be changed.
	Spec   *StateSpec
	DQL    *rl.DQL
	Reward *rl.RewardTracker

	// Training enables exploration and experience collection. With Training
	// false the agent is the paper's "NN" evaluation policy: pure greedy
	// inference on the trained weights.
	Training bool

	// Infer, when non-nil, replaces the online float network for the greedy
	// Q-value lookup in Select — the seam the quantization-fidelity study
	// uses to deploy an nn.Quantized INT8 engine (the software twin of the
	// paper's Table 3 MAC array) behind an otherwise unchanged policy.
	// Training updates always flow through the float network regardless.
	Infer nn.Inference

	// EpsStart and EpsDecayCycles define an exploration schedule: epsilon
	// decays linearly from EpsStart to the configured floor over
	// EpsDecayCycles training cycles. With EpsDecayCycles zero the floor is
	// used throughout (the paper's fixed epsilon).
	EpsStart       float64
	EpsDecayCycles int64

	cyclesSeen int64

	rng *rand.Rand

	// pending holds, per (router, output) arbitration site (indexed by
	// siteKey), the last decision awaiting its next state.
	pending []pendingDecision

	// rec, state and slots are the arbitration in hand: its Record, and the
	// state and candidate slots Expand decodes from it. inferState is the
	// dense state handed to Infer, the only dense state the agent keeps.
	rec        []byte
	state      nn.SparseVec
	slots      []int
	inferState []float64

	decisions int64
	explored  int64
}

// pendingDecision is a site's last decision: its state's record, kept in the
// site's own buffer from one decision to the next.
type pendingDecision struct {
	rec    []byte
	action int
	reward float64
	live   bool
}

// pendingAt returns the pending decision of site key, growing pending to
// reach it.
func pendingAt(pending *[]pendingDecision, key int64) *pendingDecision {
	if n := int64(len(*pending)); key >= n {
		*pending = append(*pending, make([]pendingDecision, key+1-n)...)
	}
	return &(*pending)[key]
}

// flushPending hands every live decision of pending to observe as a terminal
// transition (no successor state), in ascending site order, so that what is
// observed is a function of the seed.
func flushPending(pending []pendingDecision, observe func(rl.Transition)) {
	for i := range pending {
		if p := &pending[i]; p.live {
			observe(rl.Transition{State: p.rec, Action: p.action, Reward: p.reward, Terminal: true})
			p.live = false
		}
	}
}

// AgentConfig configures NewAgent.
type AgentConfig struct {
	// Hidden is the hidden-layer width (paper: 15 for the mesh agent, 42 for
	// the APU agent).
	Hidden int
	// DQL holds the Q-learning hyperparameters (zero fields take
	// rl.DQLConfig's defaults, the training harness's recipe).
	DQL rl.DQLConfig
	// Reward selects the reward function (default: global age).
	Reward rl.RewardKind
	// EpsStart and EpsDecayCycles configure linear exploration decay from
	// EpsStart down to DQL.Epsilon over EpsDecayCycles cycles. Zero values
	// disable the schedule (fixed epsilon, as in the paper).
	EpsStart       float64
	EpsDecayCycles int64
	// Seed seeds the agent's private RNG.
	Seed int64
}

// NewAgent builds an agent for the given state spec: a one-hidden-layer MLP
// (sigmoid hidden activation, ReLU output — Section 4.6) wrapped in a deep
// Q-learner with replay memory and target network. The agent keeps its own
// copy of spec (see Agent.Spec).
func NewAgent(spec *StateSpec, cfg AgentConfig) *Agent {
	if cfg.Hidden <= 0 {
		cfg.Hidden = spec.ActionSize()
	}
	rng := xrand.New(cfg.Seed)
	// The paper's architecture is sigmoid hidden / ReLU output (Section
	// 4.6); the output layer here is leaky ReLU, which keeps the same
	// non-negative Q shape while avoiding dying-ReLU outputs that can never
	// recover under bootstrapped targets.
	net := nn.New(
		[]int{spec.InputSize(), cfg.Hidden, spec.ActionSize()},
		[]nn.Activation{nn.Sigmoid, nn.LeakyReLU},
		rng,
	)
	if cfg.DQL.Epsilon == 0 {
		cfg.DQL.Epsilon = 0.001
	}
	a := &Agent{
		Spec:           spec.clone(),
		DQL:            rl.NewDQL(net, cfg.DQL),
		Reward:         rl.NewRewardTracker(cfg.Reward),
		Training:       true,
		EpsStart:       cfg.EpsStart,
		EpsDecayCycles: cfg.EpsDecayCycles,
		rng:            rng,
	}
	a.DQL.Replay.Codec = a.Spec.values
	return a
}

// Epsilon returns the current exploration rate under the decay schedule.
func (a *Agent) Epsilon() float64 {
	floor := a.DQL.Cfg.Epsilon
	if a.EpsDecayCycles <= 0 || a.EpsStart <= floor {
		return floor
	}
	frac := float64(a.cyclesSeen) / float64(a.EpsDecayCycles)
	if frac >= 1 {
		return floor
	}
	return a.EpsStart - float64((a.EpsStart-floor)*frac)
}

// NewAgentWithNet wraps a pre-trained network in an evaluation-only agent
// (the figures' "NN" policy). It is built without the target network and the
// replay ring a training agent carries — experiments build one per sweep cell
// — and grows them only if Training is switched on. Nothing of net is copied
// or rebuilt: agents built over the same network share all of it.
func NewAgentWithNet(spec *StateSpec, net *nn.MLP, seed int64) *Agent {
	a := &Agent{
		Spec:   spec.clone(),
		DQL:    rl.NewInferenceDQL(net, rl.DQLConfig{}),
		Reward: rl.NewRewardTracker(rl.RewardGlobalAge),
		rng:    xrand.New(seed),
	}
	a.DQL.Replay.Codec = a.Spec.values
	return a
}

// Net returns the online Q-network with its exchange form up to date: where nn
// stores the first layer input-major, training leaves Layers[0].W and .B
// behind, and Net writes them back (nn.MLP.WriteBack, free when nothing was
// trained since), so that a caller may read every layer's weights. They are
// for reading: nn does not look at what is written there.
func (a *Agent) Net() *nn.MLP {
	a.DQL.Online.WriteBack()
	return a.DQL.Online
}

// Name implements noc.Policy.
func (a *Agent) Name() string {
	if a.Training {
		return "rl-agent"
	}
	return "nn"
}

// Decisions returns the number of multi-candidate arbitrations performed.
func (a *Agent) Decisions() int64 { return a.decisions }

// ExplorationFraction returns the fraction of decisions taken randomly.
func (a *Agent) ExplorationFraction() float64 {
	if a.decisions == 0 {
		return 0
	}
	return float64(a.explored) / float64(a.decisions)
}

func siteKey(ctx *noc.ArbContext) int64 {
	return int64(ctx.Router.ID())*noc.MaxPorts + int64(ctx.Out)
}

// Select implements noc.Policy (Algorithm 1). The engine has already removed
// ineligible requesters (granted input ports, full downstream buffers), so
// the Q-value walk of Algorithm 1 lines 9-19 reduces to an argmax over the
// remaining candidates.
func (a *Agent) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	a.decisions++
	// Training and inference build the state one way: the arbitration's
	// record, expanded. A training agent stores the record, not the state.
	a.rec = a.Spec.Record(a.rec[:0], ctx.Net, ctx.Cycle, cands)
	a.state, a.slots = a.Spec.Expand(a.state, a.slots, a.rec)
	state, slots := a.state, a.slots

	// Algorithm 1 line 10: with probability epsilon the router selects a
	// random candidate. The paper keeps this in the deployed decision
	// algorithm, not just during training; besides exploration it acts as an
	// escape hatch against persistent-loser patterns of a frozen network.
	choice := 0
	if a.rng.Float64() < a.Epsilon() {
		choice = a.rng.Intn(len(cands))
		a.explored++
	} else {
		var q []float64
		if a.Infer != nil {
			if a.inferState == nil {
				a.inferState = make([]float64, a.Spec.InputSize())
			}
			state.ScatterInto(a.inferState)
			q = a.Infer.Forward(a.inferState)
		} else {
			// Only the candidates' Q-values are read, so only they are computed.
			q = a.DQL.Online.ForwardSparse(state, slots)
		}
		bestQ := q[slots[0]]
		for i, slot := range slots[1:] {
			if v := q[slot]; v > bestQ {
				bestQ, choice = v, i+1
			}
		}
	}

	if a.Training {
		p := pendingAt(&a.pending, siteKey(ctx))
		if p.live {
			a.DQL.Observe(rl.Transition{State: p.rec, Action: p.action, Reward: p.reward, Next: a.rec})
		}
		p.rec = append(p.rec[:0], a.rec...)
		p.action, p.reward, p.live = slots[choice], a.Reward.DecisionReward(ctx, cands, choice), true
	}
	return choice
}

// OnCycle refreshes the reward tracker and, in training mode, runs one replay
// training batch. Install it as the network's OnCycle hook.
func (a *Agent) OnCycle(n *noc.Network) {
	a.Reward.OnCycle(n)
	if a.Training {
		a.cyclesSeen++
		a.DQL.TrainBatch(a.rng)
	}
}

// FlushPending converts all incomplete decisions into terminal experiences
// (flushPending). Useful at the end of a training phase so the final rewards
// are not lost.
func (a *Agent) FlushPending() { flushPending(a.pending, a.DQL.Observe) }

// Freeze switches the agent to pure-inference mode (the "NN" policy):
// exploration and learning stop and pending experiences are flushed.
func (a *Agent) Freeze() {
	a.FlushPending()
	a.Training = false
}

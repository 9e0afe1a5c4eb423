package core

import (
	"context"
	"errors"

	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
)

// TrainTelemetry configures the optional introspection of a Train run:
// the training-curve telemetry (loss/epsilon/replay-fill/target-sync), a
// hook for the caller's instruments on the training network, and periodic
// weight-heatmap dumps — the artifacts behind the paper's Figs. 4, 7, 12 and
// 13. All of it is passive: enabling telemetry never changes the training
// trajectory.
type TrainTelemetry struct {
	// BatchEvery throttles the training trace to one point per N batches
	// (default 1; Train runs one batch per cycle).
	BatchEvery int64
	// Attach, when non-nil, is handed the training network after the agent's
	// OnCycle hook is installed and before the first cycle; the caller keeps
	// and reports whatever it attaches (trainarb's message tracer).
	Attach func(*noc.Network)
	// HeatmapEvery dumps a weight heatmap of the online network every N
	// epochs to HeatmapSink (0 disables). The sink receives the 1-based
	// epoch number.
	HeatmapEvery int
	HeatmapSink  func(epoch int, hm *Heatmap)
	// OnBatch/OnSync, when non-nil, are installed on the training trace
	// (TrainingTrace.OnPoint/OnSync): live per-point and per-target-sync
	// export, called from inside the training loop.
	OnBatch func(step int64, loss, replayFill, epsilon float64)
	OnSync  func(step int64)
	// OnEpoch, when non-nil, is called after each epoch with its 1-based
	// number and the epoch's average delivered-message latency — the same
	// value appended to TrainResult.Curve.
	OnEpoch func(epoch int, avgLatency float64)
}

// Env is an environment an agent trains in: a simulated system whose network
// the agent arbitrates, advanced one cycle at a time. traffic.Mesh (the
// Section 3.2 mesh under synthetic traffic) and apu.Loop (the Section 4 APU
// running its workloads) are Envs; each carries its own seeds.
type Env interface {
	// Start builds the environment's network with policy installed, and with
	// the policy's OnCycle hook when it has one, and returns the network and
	// a function that advances the environment by one cycle.
	Start(policy noc.Policy) (net *noc.Network, step func())
	// StatePorts names the input ports, and the VCs per port, that an
	// agent's StateSpec covers.
	StatePorts() ([]noc.PortID, int)
}

// trainCheckEvery is Train's cancellation poll period in cycles: coarse
// enough that the ctx.Err() check is invisible next to a simulated cycle,
// fine enough that cancellation lands within milliseconds.
const trainCheckEvery = 1024

// TrainSpec parameterizes a training run: one shared agent trained online in
// Env.
type TrainSpec struct {
	// Env is the environment the agent trains in; Train fails without one.
	Env Env
	// Features are the state features (default MeshFeatures); Fig. 13
	// passes single-feature sets here, the APU agent AllFeatures.
	Features FeatureSet
	// Hidden is the agent's hidden-layer width (default: action size).
	Hidden int
	// Reward selects the Section 6.3 reward function.
	Reward rl.RewardKind
	// DQL overrides Q-learning hyperparameters (zero fields take rl's
	// defaults).
	DQL rl.DQLConfig
	// Epochs and EpochCycles split training into reporting epochs; the
	// latency curve has one point per epoch (the x-axis of Figs. 12/13).
	Epochs      int
	EpochCycles int64
	// Seed drives the agent's randomness: its weights and its exploration.
	Seed int64
	// Telemetry, when non-nil, enables training introspection (see
	// TrainTelemetry).
	Telemetry *TrainTelemetry
}

func (s *TrainSpec) applyDefaults() {
	if s.Epochs == 0 {
		s.Epochs = 20
	}
	if s.EpochCycles == 0 {
		s.EpochCycles = 1000
	}
	if s.Features == nil {
		s.Features = MeshFeatures
	}
}

// TrainResult is the outcome of a training run.
type TrainResult struct {
	// Curve is the average latency of messages delivered in each epoch —
	// one point per epoch, the series plotted in Figs. 12 and 13.
	Curve []float64
	// Agent is the trained agent (still in training mode).
	Agent *Agent
	// Spec is the state spec the agent was trained with.
	Spec *StateSpec
	// TrainTrace holds the training telemetry when the spec set Telemetry.
	TrainTrace *rl.TrainingTrace
}

// FinalLatency returns the mean of the last quarter of the curve, a stable
// "converged latency" summary used by hill climbing.
func (r *TrainResult) FinalLatency() float64 {
	n := len(r.Curve)
	if n == 0 {
		return 0
	}
	k := n / 4
	if k == 0 {
		k = 1
	}
	sum := 0.0
	for _, v := range r.Curve[n-k:] {
		sum += v
	}
	return sum / float64(k)
}

// Train trains an agent online in s.Env and returns the latency curve and
// the trained agent, still training. Exploration decays linearly from ε 0.5
// over the first half of the run.
//
// ctx is polled every trainCheckEvery cycles, so a cancelled training job
// stops within that many simulated cycles instead of spending its whole
// budget. On cancellation the result so far, holding the agent trained so
// far, is returned alongside ctx.Err().
func Train(ctx context.Context, s TrainSpec) (*TrainResult, error) {
	if s.Env == nil {
		return nil, errors.New("core: TrainSpec has no Env")
	}
	s.applyDefaults()
	ports, vcs := s.Env.StatePorts()
	agent := NewAgent(NewStateSpec(ports, vcs, s.Features, DefaultNorm()), AgentConfig{
		Hidden:         s.Hidden,
		DQL:            s.DQL,
		Reward:         s.Reward,
		EpsStart:       0.5,
		EpsDecayCycles: int64(s.Epochs) * s.EpochCycles / 2,
		Seed:           s.Seed,
	})
	net, step := s.Env.Start(agent)
	res := &TrainResult{Agent: agent, Spec: agent.Spec}
	tel := s.Telemetry
	if tel != nil {
		agent.DQL.Trace = &rl.TrainingTrace{Every: tel.BatchEvery,
			OnPoint: tel.OnBatch, OnSync: tel.OnSync}
		res.TrainTrace = agent.DQL.Trace
		if tel.Attach != nil {
			tel.Attach(net)
		}
	}
	var cycle int64
	for e := 0; e < s.Epochs; e++ {
		net.ResetStats()
		for i := int64(0); i < s.EpochCycles; i++ {
			if cycle%trainCheckEvery == 0 && ctx.Err() != nil {
				return res, ctx.Err()
			}
			step()
			cycle++
		}
		avg := net.Stats().Latency.Mean()
		res.Curve = append(res.Curve, avg)
		if tel != nil && tel.OnEpoch != nil {
			tel.OnEpoch(e+1, avg)
		}
		if tel != nil && tel.HeatmapEvery > 0 && tel.HeatmapSink != nil && (e+1)%tel.HeatmapEvery == 0 {
			tel.HeatmapSink(e+1, NewHeatmap(res.Spec, agent.Net()))
		}
	}
	return res, nil
}

package core

import (
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/trace"
	"mlnoc/internal/traffic"
)

// TrainTelemetry configures the optional introspection of a TrainMesh run:
// the training-curve telemetry (loss/epsilon/replay-fill/target-sync), an
// attached per-message lifecycle tracer, and periodic weight-heatmap dumps —
// the artifacts behind the paper's Figs. 4, 7, 12 and 13. All of it is
// passive: enabling telemetry never changes the training trajectory.
type TrainTelemetry struct {
	// BatchEvery throttles the training trace to one point per N batches
	// (default 1; TrainMesh runs one batch per cycle).
	BatchEvery int64
	// Trace, when non-nil, attaches a message tracer to the training mesh.
	Trace *trace.Config
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

// MeshTrainConfig parameterizes a Section 3.2-style training run: a W x H
// mesh of cores under uniform-random synthetic traffic, one shared agent
// trained online.
type MeshTrainConfig struct {
	Width, Height int
	VCs           int
	BufferCap     int
	// Rate is the per-node injection probability per cycle.
	Rate float64
	// Hidden is the agent's hidden-layer width (default: action size).
	Hidden int
	// Epochs and EpochCycles split training into reporting epochs; the
	// latency curve has one point per epoch (the x-axis of Figs. 12/13).
	Epochs      int
	EpochCycles int64
	// Reward selects the Section 6.3 reward function.
	Reward rl.RewardKind
	// Features overrides the state features (default MeshFeatures); Fig. 13
	// passes single-feature sets here.
	Features FeatureSet
	// DQL overrides Q-learning hyperparameters.
	DQL rl.DQLConfig
	// Seed drives all randomness in the run.
	Seed int64
	// Telemetry, when non-nil, enables training introspection (see
	// TrainTelemetry).
	Telemetry *TrainTelemetry
}

func (c *MeshTrainConfig) applyDefaults() {
	if c.Width == 0 {
		c.Width = 4
	}
	if c.Height == 0 {
		c.Height = c.Width
	}
	if c.VCs == 0 {
		c.VCs = 3
	}
	if c.BufferCap == 0 {
		// Single-message buffers model flit-level input buffers that cannot
		// hold more than one data message, the regime in which arbitration
		// quality separates policies (HOL blocking and congestion trees).
		c.BufferCap = 1
	}
	if c.Rate == 0 {
		c.Rate = 0.23
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.EpochCycles == 0 {
		c.EpochCycles = 1000
	}
	if c.Features == nil {
		c.Features = MeshFeatures
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
	// TrainTrace holds the training telemetry when cfg.Telemetry was set.
	TrainTrace *rl.TrainingTrace
	// Tracer is the message tracer when cfg.Telemetry.Trace was set.
	Tracer *trace.Tracer
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

// TrainMesh runs one online training experiment and returns the latency
// curve and the trained agent.
func TrainMesh(cfg MeshTrainConfig) *TrainResult {
	cfg.applyDefaults()
	spec := NewStateSpec(
		[]noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
		cfg.VCs, cfg.Features, DefaultNorm())
	// Training-harness hyperparameters: the paper's batch of 2 at lr 0.001
	// converges over industrial-length simulations; at laptop scale we use a
	// larger batch, a higher learning rate and linear exploration decay to
	// reach the same policies in tens of thousands of cycles.
	dql := cfg.DQL
	if dql.BatchSize == 0 {
		dql.BatchSize = 32
	}
	if dql.LR == 0 {
		dql.LR = 0.05
	}
	if dql.Gamma == 0 {
		dql.Gamma = 0.5
	}
	if dql.ReplayCap == 0 {
		dql.ReplayCap = 16000
	}
	if dql.SyncEvery == 0 {
		dql.SyncEvery = 2000
	}
	totalCycles := int64(cfg.Epochs) * cfg.EpochCycles
	agent := NewAgent(spec, AgentConfig{
		Hidden:         cfg.Hidden,
		DQL:            dql,
		Reward:         cfg.Reward,
		EpsStart:       0.5,
		EpsDecayCycles: totalCycles / 2,
		Seed:           cfg.Seed,
	})

	net, in := newMeshRun(cfg, agent)
	net.OnCycle = agent.OnCycle

	res := &TrainResult{Agent: agent, Spec: spec}
	tel := cfg.Telemetry
	if tel != nil {
		agent.DQL.Trace = &rl.TrainingTrace{Every: tel.BatchEvery,
			OnPoint: tel.OnBatch, OnSync: tel.OnSync}
		res.TrainTrace = agent.DQL.Trace
		if tel.Trace != nil {
			res.Tracer = trace.Attach(net, *tel.Trace)
		}
	}
	for e := 0; e < cfg.Epochs; e++ {
		net.ResetStats()
		for i := int64(0); i < cfg.EpochCycles; i++ {
			in.Tick()
			net.Step()
		}
		avg := net.Stats().Latency.Mean()
		res.Curve = append(res.Curve, avg)
		if tel != nil && tel.OnEpoch != nil {
			tel.OnEpoch(e+1, avg)
		}
		if tel != nil && tel.HeatmapEvery > 0 && tel.HeatmapSink != nil && (e+1)%tel.HeatmapEvery == 0 {
			tel.HeatmapSink(e+1, NewHeatmap(spec, agent.Net()))
		}
	}
	return res
}

// newMeshRun builds the mesh network and injector for cfg with the given
// policy installed.
func newMeshRun(cfg MeshTrainConfig, policy noc.Policy) (*noc.Network, *traffic.Injector) {
	return traffic.Mesh{
		Config: noc.Config{Width: cfg.Width, Height: cfg.Height, VCs: cfg.VCs, BufferCap: cfg.BufferCap},
		Rate:   cfg.Rate,
		Seed:   cfg.Seed + 1,
	}.Build(policy)
}

// EvaluateMeshPolicy measures the average message latency of a policy on the
// cfg mesh under uniform-random traffic (warmup + measured phase + drain).
// It is the evaluation half of the Fig. 5 experiment.
func EvaluateMeshPolicy(cfg MeshTrainConfig, policy noc.Policy, warmup, measure int64) traffic.RunResult {
	cfg.applyDefaults()
	net, in := newMeshRun(cfg, policy)
	if agent, ok := policy.(*Agent); ok {
		net.OnCycle = agent.OnCycle
	}
	return traffic.Run(net, in, warmup, measure)
}

package core

import (
	"context"

	"mlnoc/internal/apu"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
	"mlnoc/internal/traffic"
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

// DefaultMeshRate is the per-node injection probability per cycle of the
// Section 3.2 study on meshes smaller than 8x8, at the onset of saturation: a
// TrainSpec's Rate when none is set.
const DefaultMeshRate = 0.23

// The Section 3.2 mesh has 3 VCs of single-message buffers: flit-level input
// buffers that cannot hold more than one data message, the regime in which
// arbitration quality separates policies (HOL blocking and congestion trees).
const (
	meshVCs       = 3
	meshBufferCap = 1
)

// apuModel is the workload the APU agent trains on: the application the
// paper derives Fig. 7 from.
const apuModel = "bfs"

// trainCheckEvery is Train's cancellation poll period in cycles: coarse
// enough that the ctx.Err() check is invisible next to a simulated cycle,
// fine enough that cancellation lands within milliseconds.
const trainCheckEvery = 1024

// TrainSpec parameterizes a training run: one shared agent trained online in
// one of two environments. A zero OpScale picks the Section 3.2 mesh, a
// Width x Width mesh of cores with 3 VCs of single-message buffers under
// uniform-random traffic. A positive OpScale picks the Section 4.6 APU
// system, running the bfs model until the training budget is spent.
type TrainSpec struct {
	// Width is the mesh edge (default 4).
	Width int
	// Rate is the mesh's per-node injection probability per cycle (default
	// DefaultMeshRate).
	Rate float64
	// OpScale, when positive, trains the 504-input APU agent instead of a
	// mesh agent, on bfs with its op counts scaled by OpScale. The workload
	// is relaunched each time it finishes.
	OpScale float64
	// Hidden is the agent's hidden-layer width (default: action size).
	Hidden int
	// Epochs and EpochCycles split training into reporting epochs; the
	// latency curve has one point per epoch (the x-axis of Figs. 12/13).
	Epochs      int
	EpochCycles int64
	// Reward selects the Section 6.3 reward function.
	Reward rl.RewardKind
	// Features overrides the mesh state features (default MeshFeatures);
	// Fig. 13 passes single-feature sets here. The APU agent has its own.
	Features FeatureSet
	// DQL overrides Q-learning hyperparameters (zero fields take rl's
	// defaults).
	DQL rl.DQLConfig
	// Seed drives all randomness in the run.
	Seed int64
	// Telemetry, when non-nil, enables training introspection (see
	// TrainTelemetry).
	Telemetry *TrainTelemetry
}

func (s *TrainSpec) applyDefaults() {
	if s.Width == 0 {
		s.Width = 4
	}
	if s.Rate == 0 {
		s.Rate = DefaultMeshRate
	}
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

// Mesh returns the mesh environment of s, with its defaults applied: the
// network and traffic that Train trains a mesh agent on and
// EvaluateMeshPolicy evaluates a policy on. Its injector is seeded with
// Seed+1.
func (s TrainSpec) Mesh() traffic.Mesh {
	s.applyDefaults()
	return traffic.Mesh{
		Config: noc.Config{Width: s.Width, Height: s.Width, VCs: meshVCs, BufferCap: meshBufferCap},
		Rate:   s.Rate,
		Seed:   s.Seed + 1,
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

// Train trains an agent online in the environment s picks and returns the
// latency curve and the trained agent, still training. Exploration decays
// linearly from ε 0.5 over the first half of the run.
//
// ctx is polled every trainCheckEvery cycles, so a cancelled training job
// stops within that many simulated cycles instead of spending its whole
// budget. On cancellation the result so far, holding the agent trained so
// far, is returned alongside ctx.Err().
func Train(ctx context.Context, s TrainSpec) (*TrainResult, error) {
	s.applyDefaults()
	agent, net, step := newTrainRun(s)
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

// newTrainRun builds the agent s describes, s's defaults applied, and
// installs it in the environment s picks: net is the network the agent
// arbitrates, and step advances the environment one cycle.
func newTrainRun(s TrainSpec) (agent *Agent, net *noc.Network, step func()) {
	onAPU := s.OpScale > 0
	spec := APUSpec()
	if !onAPU {
		spec = NewStateSpec(
			[]noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
			meshVCs, s.Features, DefaultNorm())
	}
	agent = NewAgent(spec, AgentConfig{
		Hidden:         s.Hidden,
		DQL:            s.DQL,
		Reward:         s.Reward,
		EpsStart:       0.5,
		EpsDecayCycles: int64(s.Epochs) * s.EpochCycles / 2,
		Seed:           s.Seed,
	})
	if onAPU {
		sys := apu.NewSystem(apu.Config{}, s.Seed+11)
		sys.Net.SetPolicy(agent)
		model, err := synfull.ByName(apuModel)
		if err != nil {
			panic(err)
		}
		var runner *apu.Runner
		var launch int64
		net = sys.Net
		step = func() {
			if runner == nil || runner.Done() {
				runner = apu.NewRunner(sys, apu.Homogeneous(model), apu.RunnerConfig{
					OpScale: s.OpScale,
					Seed:    s.Seed + 101*launch,
				})
				launch++
			}
			runner.Step()
		}
	} else {
		var in *traffic.Injector
		net, in = s.Mesh().Build(agent)
		step = func() {
			in.Tick()
			net.Step()
		}
	}
	net.OnCycle = agent.OnCycle
	return agent, net, step
}

// EvaluateMeshPolicy measures the average message latency of a policy on the
// mesh of s under uniform-random traffic (warmup + measured phase + drain).
// It is the evaluation half of the Fig. 5 experiment.
func EvaluateMeshPolicy(s TrainSpec, policy noc.Policy, warmup, measure int64) traffic.RunResult {
	net, in := s.Mesh().Build(policy)
	if agent, ok := policy.(*Agent); ok {
		net.OnCycle = agent.OnCycle
	}
	return traffic.Run(net, in, warmup, measure)
}

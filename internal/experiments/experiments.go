// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a function from a Scale (how much
// simulation/training effort to spend) to a typed result with a Render
// method. Table names every experiment once: each entry runs one of these
// functions and returns its rendered tables and CSV files. cmd/experiments
// and the serve daemon's jobs are lookups into Table, so a figure printed by
// the command and the same figure served by the daemon are the same bytes.
//
// Absolute numbers depend on the simulator substrate (see DESIGN.md); the
// experiments reproduce the paper's *shape*: policy orderings, approximate
// factors, and crossovers.
package experiments

import (
	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/xrand"
)

// Scale controls how much work the experiments perform. The paper's results
// come from industrial-length simulations; these presets trade precision for
// turnaround while preserving result shape.
type Scale struct {
	// TrainCycles is the number of cycles RL agents are trained for.
	TrainCycles int64
	// WarmupCycles and MeasureCycles bound synthetic-traffic measurements.
	WarmupCycles, MeasureCycles int64
	// OpScale multiplies workload op counts in APU runs.
	OpScale float64
	// Epochs and EpochCycles shape training curves (Figs. 12-13).
	Epochs      int
	EpochCycles int64
	// Seed drives all randomness.
	Seed int64
}

// Quick returns a scale suitable for benchmarks and CI: minutes, not hours.
func Quick() Scale {
	return Scale{
		TrainCycles:   50_000,
		WarmupCycles:  1_000,
		MeasureCycles: 4_000,
		OpScale:       0.25,
		Epochs:        16,
		EpochCycles:   1_000,
		Seed:          1,
	}
}

// Full returns a scale closer to the paper's simulation lengths.
func Full() Scale {
	return Scale{
		TrainCycles:   150_000,
		WarmupCycles:  3_000,
		MeasureCycles: 20_000,
		OpScale:       1.0,
		Epochs:        51,
		EpochCycles:   2_000,
		Seed:          1,
	}
}

// PolicyFactory creates a fresh policy instance; stateful policies (pointer
// state, RNGs) must not be shared across runs.
type PolicyFactory struct {
	Name string
	New  func(seed int64) noc.Policy
}

// apuFactories returns the Fig. 9 policies in legend order: Round-robin,
// iSLIP, FIFO, ProbDist, RL-inspired, the frozen NN agent (omitted when
// nnAgent is nil) and Global-age, last.
func apuFactories(nnAgent *core.Agent) []PolicyFactory {
	fs := []PolicyFactory{
		{Name: "Round-robin", New: func(int64) noc.Policy { return arb.NewRoundRobin() }},
		{Name: "iSLIP", New: func(int64) noc.Policy { return arb.NewISLIP(2) }},
		{Name: "FIFO", New: func(int64) noc.Policy { return arb.NewFIFO() }},
		{Name: "ProbDist", New: func(seed int64) noc.Policy {
			return arb.NewProbDist(xrand.New(seed))
		}},
		{Name: "RL-inspired", New: func(int64) noc.Policy { return core.NamedRule("rl-inspired") }},
	}
	if nnAgent != nil {
		spec := nnAgent.Spec
		frozen := nnAgent.Net()
		fs = append(fs, PolicyFactory{
			Name: "NN",
			// Each run gets its own clone: the MLP's scratch buffers and the
			// agent's RNG are not safe to share across concurrent runs.
			New: func(seed int64) noc.Policy {
				return core.NewAgentWithNet(spec, frozen.Clone(), seed)
			},
		})
	}
	return append(fs, PolicyFactory{
		Name: "Global-age",
		New:  func(int64) noc.Policy { return arb.NewGlobalAge() },
	})
}

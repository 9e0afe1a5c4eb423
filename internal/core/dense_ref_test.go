package core

import (
	"math"
	"testing"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
)

// denseLearner is the test-only reference for training from sparse states: an
// agent whose every network call goes through the dense entry points on
// densified states and computes all 42 outputs. Decisions run nn.MLP.Forward
// through the Agent.Infer seam; the per-cycle training step is trainBatch
// below in place of rl.DQL.TrainBatch.
type denseLearner struct {
	agent *Agent
	steps int64
}

func newDenseLearner(spec *StateSpec, cfg AgentConfig) *denseLearner {
	a := NewAgent(spec, cfg)
	a.Infer = a.Net()
	return &denseLearner{agent: a}
}

// onCycle is Agent.OnCycle with the dense training step.
func (l *denseLearner) onCycle(n *noc.Network) {
	a := l.agent
	a.Reward.OnCycle(n)
	a.cyclesSeen++
	l.trainBatch()
}

// trainBatch is rl.DQL.TrainBatch spelled out on dense vectors: the same
// draws, the same sync-bounded chunks of target inference (so the same rows
// share a 4x2 FMA tile), one ForwardBatchFast and one TrainAction per
// experience written out to full width.
func (l *denseLearner) trainBatch() {
	d, in := l.agent.DQL, l.agent.Spec.InputSize()
	if d.Replay.Len() == 0 {
		return
	}
	dense := func(v nn.SparseVec) []float64 {
		x := make([]float64, in)
		v.ScatterInto(x)
		return x
	}
	batch := make([]*rl.Experience, d.Cfg.BatchSize)
	d.Replay.SampleInto(l.agent.rng, batch)
	for start := 0; start < len(batch); {
		chunk := min(len(batch)-start, int(d.Cfg.SyncEvery-l.steps%d.Cfg.SyncEvery))
		var next [][]float64
		for _, e := range batch[start : start+chunk] {
			if !e.Terminal {
				next = append(next, dense(e.Next))
			}
		}
		qs := d.Target.ForwardBatchFast(next)
		for _, e := range batch[start : start+chunk] {
			target := e.Reward
			if !e.Terminal {
				best := qs[0][e.NextValid[0]]
				for _, a := range e.NextValid[1:] {
					if q := qs[0][a]; q > best {
						best = q
					}
				}
				target += d.Cfg.Gamma * best
				qs = qs[1:]
			}
			d.Online.TrainAction(dense(e.State), e.Action, target, d.Cfg.LR)
			if l.steps++; l.steps%d.Cfg.SyncEvery == 0 {
				d.Target.CopyFrom(d.Online)
			}
		}
		start += chunk
	}
}

// TestSparseTrainingRunMatchesDenseReference trains the APU agent online for
// 2 000 cycles of relaunching bfs episodes — sparse states from the builder
// through a wrapping replay ring into the network, only the read Q-values
// computed — and requires decisions, SGD steps and every online weight to be
// bit-equal to the dense reference's.
func TestSparseTrainingRunMatchesDenseReference(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	const cycles, seed = 2000, 29
	cfg := AgentConfig{
		Hidden:         42,
		DQL:            rl.DQLConfig{BatchSize: 32, LR: 0.05, Gamma: 0.5, ReplayCap: 3000, SyncEvery: 700},
		EpsStart:       0.5,
		EpsDecayCycles: cycles / 2,
		Seed:           seed,
	}
	run := func(agent *Agent, onCycle func(*noc.Network)) {
		net, step := apuLoop("bfs", 0.05, seed).Start(agent)
		net.OnCycle = onCycle
		for i := 0; i < cycles; i++ {
			step()
		}
	}
	sparse := NewAgent(APUSpec(), cfg)
	run(sparse, sparse.OnCycle)
	ref := newDenseLearner(APUSpec(), cfg)
	run(ref.agent, ref.onCycle)

	if r := sparse.DQL.Replay; r.Len() < r.Cap() {
		t.Fatalf("run too short to wrap the replay ring: %d of %d", r.Len(), r.Cap())
	}
	if sparse.Decisions() != ref.agent.Decisions() || sparse.DQL.Steps() != ref.steps || ref.steps < 2*cfg.DQL.SyncEvery {
		t.Fatalf("decisions %d vs %d, SGD steps %d vs %d", sparse.Decisions(), ref.agent.Decisions(), sparse.DQL.Steps(), ref.steps)
	}
	for l, layer := range sparse.Net().Layers {
		want := ref.agent.Net().Layers[l]
		for i, w := range layer.W {
			if math.Float64bits(w) != math.Float64bits(want.W[i]) {
				t.Fatalf("layer %d weight %d: %v, dense reference %v", l, i, w, want.W[i])
			}
		}
		for j, b := range layer.B {
			if math.Float64bits(b) != math.Float64bits(want.B[j]) {
				t.Fatalf("layer %d bias %d: %v, dense reference %v", l, j, b, want.B[j])
			}
		}
	}
}

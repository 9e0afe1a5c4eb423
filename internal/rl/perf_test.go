package rl

import (
	"math/rand"
	"testing"

	"mlnoc/internal/nn"
)

// sparseStateVec returns a state vector shaped like core.StateSpec's: k of the
// n/width blocks hold a message's features (scalars in [0,1), one in four of
// them 0), every other element is zero padding.
func sparseStateVec(rng *rand.Rand, n, width, k int) []float64 {
	x, _ := blockState(rng, n, width, k)
	return x
}

// blockState is sparseStateVec, with the same draws, also returning the k
// blocks that hold a message: the state's occupied slots, which are its
// candidates' actions.
func blockState(rng *rand.Rand, n, width, k int) ([]float64, []int) {
	x := make([]float64, n)
	slots := rng.Perm(n / width)[:k]
	for _, slot := range slots {
		for i := slot * width; i < (slot+1)*width; i++ {
			if rng.Intn(4) > 0 {
				x[i] = rng.Float64()
			}
		}
	}
	return x, slots
}

// apuOccupied draws how many buffers of an APU state hold a competing message,
// from what NextValid held over 174 080 bootstraps of the apu_train workload:
// 2 actions 72.2 % of the time, 3 19.9 %, 4 5.6 %, 5 1.7 % and 6 or more 0.6 %
// (drawn here as 6).
func apuOccupied(rng *rand.Rand) int {
	p := rng.Float64()
	for k, below := range []float64{0.722, 0.921, 0.977, 0.994} {
		if p < below {
			return 2 + k
		}
	}
	return 6
}

// benchAPU builds the APU learner (504->42->42, batch 32, apu_train's
// hyper-parameters) on apu_train's measured occupancy.
func benchAPU() (*DQL, *rand.Rand) { return benchDQLOf(504, 12, 42, apuOccupied) }

// benchDQL builds a mesh-scale learner (60->15->15, batch 32) with a full
// replay ring, the shape TrainMesh drives once per cycle, holding states that
// look like its traffic: 2 or 3 of the 15 buffers have a competing message.
func benchDQL() (*DQL, *rand.Rand) {
	return benchDQLOf(60, 4, 15, func(rng *rand.Rand) int { return 2 + rng.Intn(2) })
}

// benchDQLOf is a learner of in inputs, width features a buffer, and as many
// hidden neurons as actions, with a full replay ring. A state and its
// successor each have occupied(rng) buffers with a message, the action is one
// of the state's, and NextValid lists the successor's.
func benchDQLOf(in, width, actions int, occupied func(*rand.Rand) int) (*DQL, *rand.Rand) {
	d := NewDQL(newNet(5, in, actions, actions), DQLConfig{
		BatchSize: 32, ReplayCap: 4000, SyncEvery: 2000, LR: 0.05, Gamma: 0.5,
	})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < d.Replay.Cap(); i++ {
		state, slots := blockState(rng, in, width, occupied(rng))
		next, valid := blockState(rng, in, width, occupied(rng))
		d.Observe(Experience{
			State:     sparse(state),
			Action:    slots[rng.Intn(len(slots))],
			Reward:    rng.Float64(),
			Next:      sparse(next),
			NextValid: valid,
		})
	}
	return d, rng
}

func BenchmarkHotDQLTrainBatch(b *testing.B) {
	d, rng := benchDQL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TrainBatch(rng)
	}
}

// BenchmarkHotDQLTrainBatchAPU is one training cycle of the APU learner
// (504->42->42, batch 32, apu_train's hyper-parameters): 32 bootstraps on the
// target, 32 SGD steps on the online network.
func BenchmarkHotDQLTrainBatchAPU(b *testing.B) {
	d, rng := benchAPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TrainBatch(rng)
	}
}

// BenchmarkHotTargetBootstrapAPU is the target network's part of one APU
// training batch: the Q-values of 32 successor states, the outputs their
// NextValid lists (what TrainBatch asks for) against all of them (nil).
func BenchmarkHotTargetBootstrapAPU(b *testing.B) {
	d, rng := benchAPU()
	ns, nv := make([]nn.SparseVec, 32), make([][]int, 32)
	for k, e := range d.Replay.Sample(rng, 32) {
		ns[k], nv[k] = e.Next, e.NextValid
	}
	for _, c := range []struct {
		name string
		outs [][]int
	}{{"NextValid", nv}, {"nil", nil}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Target.ForwardBatchFastSparse(ns, c.outs)
			}
		})
	}
}

// BenchmarkHotTargetSync is the APU learner's target refresh, once every
// SyncEvery steps.
func BenchmarkHotTargetSync(b *testing.B) {
	d, _ := benchAPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Target.CopyFrom(d.Online)
	}
}

func BenchmarkHotReplaySample(b *testing.B) {
	d, rng := benchDQL()
	dst := make([]*Experience, d.Cfg.BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Replay.SampleInto(rng, dst)
	}
}

func TestSampleIntoMatchesSample(t *testing.T) {
	d, _ := benchDQL()
	a := d.Replay.Sample(rand.New(rand.NewSource(3)), 16)
	b := make([]*Experience, 16)
	d.Replay.SampleInto(rand.New(rand.NewSource(3)), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: Sample and SampleInto diverge with the same seed", i)
		}
	}
}

func TestReplayAtOrdersOldestFirst(t *testing.T) {
	r := NewReplay(4)
	for i := 0; i < 6; i++ { // wraps: holds experiences 2..5
		r.Add(Experience{Action: i})
	}
	for i, want := range []int{2, 3, 4, 5} {
		if got := r.At(i).Action; got != want {
			t.Fatalf("At(%d).Action = %d, want %d", i, got, want)
		}
	}
}

// TestInferenceDQLGrowsTrainingStateOnUse pins what NewInferenceDQL holds
// back and when it appears: no target copy until the learner first trains, and
// a replay memory that reports its capacity and accepts experiences.
func TestInferenceDQLGrowsTrainingStateOnUse(t *testing.T) {
	d := NewInferenceDQL(newNet(5, 60, 15, 15), DQLConfig{ReplayCap: 8})
	rng := rand.New(rand.NewSource(2))
	if d.Target != nil || d.Replay.Len() != 0 || d.Replay.Cap() != 8 {
		t.Fatalf("fresh learner: target %v, replay %d/%d", d.Target, d.Replay.Len(), d.Replay.Cap())
	}
	if loss := d.TrainBatch(rng); loss != 0 || d.Target != nil {
		t.Fatal("TrainBatch on an empty replay memory trained or built the target")
	}
	before := d.Online.Clone()
	d.Observe(Experience{State: sparse(sparseStateVec(rng, 60, 4, 2)), Action: 3, Reward: 1, Next: sparse(sparseStateVec(rng, 60, 4, 2))})
	d.TrainBatch(rng)
	if d.Target == nil || d.Target == d.Online || d.Steps() != 2 {
		t.Fatalf("after training: target %p online %p steps %d", d.Target, d.Online, d.Steps())
	}
	// The target is the online network as it was when training began.
	d.Target.WriteBack()
	for l, layer := range d.Target.Layers {
		for i, w := range layer.W {
			if w != before.Layers[l].W[i] {
				t.Fatalf("target layer %d weight %d is not the pre-training weight", l, i)
			}
		}
	}
}

func TestReplayOnEvictFiresOnOverwrite(t *testing.T) {
	r := NewReplay(3)
	var evicted []int
	r.OnEvict = func(e *Experience) { evicted = append(evicted, e.Action) }
	for i := 0; i < 5; i++ {
		r.Add(Experience{Action: i})
	}
	// Capacity 3: adds 3 and 4 overwrite experiences 0 and 1, oldest first.
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Fatalf("evicted = %v, want [0 1]", evicted)
	}
}

// TestTrainBatchZeroAllocs pins the zero-allocation contract: steady-state
// training, and the replay draw it starts with, perform no heap allocations.
func TestTrainBatchZeroAllocs(t *testing.T) {
	d, rng := benchDQL()
	dst := make([]*Experience, d.Cfg.BatchSize)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"TrainBatch", func() { d.TrainBatch(rng) }},
		{"Replay.SampleInto", func() { d.Replay.SampleInto(rng, dst) }},
	} {
		if allocs := testing.AllocsPerRun(50, c.call); allocs != 0 {
			t.Errorf("%s allocates %v objects per batch, want 0", c.name, allocs)
		}
	}
}

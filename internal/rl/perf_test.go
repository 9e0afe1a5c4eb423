package rl

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
// replay ring, the shape core.Train drives once per cycle, holding states that
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
		observe(d, Experience{
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
	ns, nv, batch := make([]nn.SparseVec, 32), make([][]int, 32), make([]*Experience, 32)
	d.Replay.SampleInto(rng, batch)
	for k, e := range batch {
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

// TestSampleIntoDrawsIntnInOrder pins SampleInto's RNG consumption, which
// seeded trajectories depend on: one Intn(Len()) per element of dst, in
// order, each naming the ring slot drawn (slot k holds the latest experience
// added at a position k modulo the capacity), and nothing else drawn.
func TestSampleIntoDrawsIntnInOrder(t *testing.T) {
	r := NewReplay(7)
	r.Codec = verbatim{}
	for i := 0; i < 10; i++ {
		r.Add(transition(Experience{Action: i}))
	}
	got, want := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	dst := make([]*Experience, 16)
	r.SampleInto(got, dst)
	for i, e := range dst {
		k := want.Intn(r.Len())
		if k < 10-7 {
			k += 7
		}
		if e.Action != k {
			t.Fatalf("draw %d is experience %d, want %d", i, e.Action, k)
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("SampleInto drew more than one Intn per experience")
	}
}

func TestReplayAtOrdersOldestFirst(t *testing.T) {
	r := NewReplay(4)
	r.Codec = verbatim{}
	for i := 0; i < 6; i++ { // wraps: holds experiences 2..5
		r.Add(transition(Experience{Action: i}))
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
	d := NewInferenceDQL(newNet(5, 60, 15, 15), DQLConfig{ReplayCap: 8, BatchSize: 2})
	rng := rand.New(rand.NewSource(2))
	if d.Target != nil || d.Replay.Len() != 0 || d.Replay.Cap() != 8 {
		t.Fatalf("fresh learner: target %v, replay %d/%d", d.Target, d.Replay.Len(), d.Replay.Cap())
	}
	if loss := d.TrainBatch(rng); loss != 0 || d.Target != nil {
		t.Fatal("TrainBatch on an empty replay memory trained or built the target")
	}
	before := d.Online.Clone()
	observe(d, Experience{State: sparse(sparseStateVec(rng, 60, 4, 2)), Action: 3, Reward: 1, Next: sparse(sparseStateVec(rng, 60, 4, 2))})
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

// TestReplayArenaRing drives a small ring through records of many lengths,
// so that the arena wraps, leaves gaps at its end and doubles with live
// records in it, wrapped or not, and checks after every Add that the ring holds the latest
// experiences, oldest first, each as it was added: reward, action, the state,
// and the successor with its valid actions unless terminal. The caller's
// buffers are overwritten after each Add, which must change nothing stored.
func TestReplayArenaRing(t *testing.T) {
	const capacity = 9
	r := NewReplay(capacity)
	r.Codec = verbatim{}
	rng := rand.New(rand.NewSource(5))
	var added []Experience
	var state, next []byte
	sizes, wraps := map[int]bool{}, 0
	for i := 0; i < 400; i++ {
		// States that grow over the run, from a few bytes to over a
		// kilobyte, so the arena fills up and doubles in every layout.
		k := 1 + i/8 + rng.Intn(4)
		e := Experience{
			State:    sparse(sparseStateVec(rng, 400, 4, k)),
			Action:   rng.Intn(100),
			Reward:   []float64{0, 1, rng.Float64(), -rng.Float64()}[rng.Intn(4)],
			Next:     sparse(sparseStateVec(rng, 400, 4, 1+rng.Intn(k))),
			Terminal: rng.Intn(5) == 0,
		}
		if !e.Terminal {
			e.NextValid = rng.Perm(100)[:rng.Intn(4)]
		}
		tr := transition(e)
		state, next = append(state[:0], tr.State...), append(next[:0], tr.Next...)
		r.Add(Transition{State: state, Action: tr.Action, Reward: tr.Reward, Next: next, Terminal: tr.Terminal})
		for j := range state {
			state[j] = 0xff
		}
		for j := range next {
			next[j] = 0xff
		}
		added = append(added, e)
		sizes[len(r.arena)] = true
		if r.Len() > 1 && r.off[(r.next+capacity-1)%capacity] == 0 {
			wraps++
		}

		live := added[max(0, len(added)-capacity):]
		if r.Len() != len(live) {
			t.Fatalf("add %d: ring holds %d, want %d", i, r.Len(), len(live))
		}
		for j, want := range live {
			got := r.At(j)
			if got.Action != want.Action || math.Float64bits(got.Reward) != math.Float64bits(want.Reward) || got.Terminal != want.Terminal {
				t.Fatalf("add %d: At(%d) is action %d reward %v terminal %t, want %d %v %t",
					i, j, got.Action, got.Reward, got.Terminal, want.Action, want.Reward, want.Terminal)
			}
			if !sameVec(got.State, want.State) {
				t.Fatalf("add %d: At(%d) state differs", i, j)
			}
			if want.Terminal {
				if len(got.Next.Idx) != 0 || got.NextValid != nil {
					t.Fatalf("add %d: terminal At(%d) has a successor", i, j)
				}
				continue
			}
			if !sameVec(got.Next, want.Next) || !slices.Equal(got.NextValid, want.NextValid) {
				t.Fatalf("add %d: At(%d) successor differs", i, j)
			}
		}
	}
	if len(sizes) < 3 || wraps == 0 {
		t.Fatalf("arena took %d sizes and wrapped %d times: growth under live records or wrap-around untested", len(sizes), wraps)
	}
	t.Logf("arena sizes %v, %d wraps", sizes, wraps)
}

// TestReplayArenaPlacement walks the arena through each placement in turn,
// with records of set sizes in a ring of four: after the youngest record,
// doubling when the end is reached before the ring is full, at the start once
// the end has no room, after a wrapped youngest record, and doubling when a
// record would overrun the oldest live one by 25 bytes, wrapped or from the
// start. After every Add each live record must read back as it was added.
func TestReplayArenaPlacement(t *testing.T) {
	r := NewReplay(4)
	var added [][]byte
	for i, c := range []struct{ size, arena, at int }{
		{1000, minArena, 0}, {1000, minArena, 1000}, {1000, minArena, 2000},
		{1200, 2 * minArena, 3000}, // past the end, ring not full: double
		{2000, 2 * minArena, 4200},
		{1500, 2 * minArena, 6200},
		{1000, 2 * minArena, 0},    // the end has no room: wrap
		{1500, 2 * minArena, 1000}, // after the wrapped youngest
		{3725, 4 * minArena, 4000}, // 25 bytes past the oldest: double
		{1000, 4 * minArena, 7725},
		{7000, 4 * minArena, 8725},
		{4025, 8 * minArena, 11725}, // no room at the end, 25 bytes short at the start: double
	} {
		// A 25-byte header (the kind, then action i and the two lengths in
		// eight bytes each, a state being past 255 bytes) and the state.
		state := bytes.Repeat([]byte{byte(i + 1)}, c.size-25)
		r.Add(Transition{State: state, Action: i})
		added = append(added, state)
		slot := (r.next + r.cap - 1) % r.cap
		if len(r.arena) != c.arena || int(r.off[slot]) != c.at {
			t.Fatalf("add %d: record at %d in an arena of %d, want at %d in %d", i, r.off[slot], len(r.arena), c.at, c.arena)
		}
		for j := 0; j < r.Len(); j++ {
			k, n := (r.next-r.Len()+j+r.cap)%r.cap, len(added)-r.Len()+j
			if got, size, _ := parseTransition(r.arena[r.off[k]:]); !bytes.Equal(got.State, added[n]) || got.Action != n || size != len(added[n])+25 {
				t.Fatalf("add %d: live record %d does not read back as added", i, j)
			}
		}
	}
}

// sameVec reports whether a and b list the same entries, bit for bit.
func sameVec(a, b nn.SparseVec) bool {
	return slices.Equal(a.Idx, b.Idx) && slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
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

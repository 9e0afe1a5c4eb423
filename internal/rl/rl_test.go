package rl

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
)

func newNet(seed int64, in, hidden, out int) *nn.MLP {
	return nn.New([]int{in, hidden, out},
		[]nn.Activation{nn.Sigmoid, nn.LeakyReLU},
		rand.New(rand.NewSource(seed)))
}

// sparse returns x's non-zero elements as the nn.SparseVec experiences hold.
func sparse(x []float64) nn.SparseVec {
	var v nn.SparseVec
	v.Index(x)
	return v
}

// dense writes v out as the n-wide vector the dense entry points take.
func dense(v nn.SparseVec, n int) []float64 {
	x := make([]float64, n)
	v.ScatterInto(x)
	return x
}

func TestReplayRingSemantics(t *testing.T) {
	r := NewReplay(3)
	r.Codec = verbatim{}
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh replay len/cap = %d/%d", r.Len(), r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Add(transition(Experience{Action: i}))
	}
	if r.Len() != 3 {
		t.Fatalf("len after overfill = %d, want 3", r.Len())
	}
	// Oldest entries (0, 1) must have been evicted.
	seen := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	batch := make([]*Experience, 4)
	for i := 0; i < 200; i++ {
		r.SampleInto(rng, batch)
		for _, e := range batch {
			seen[e.Action] = true
		}
	}
	for a := 0; a <= 1; a++ {
		if seen[a] {
			t.Fatalf("evicted experience %d still sampled", a)
		}
	}
	for a := 2; a <= 4; a++ {
		if !seen[a] {
			t.Fatalf("live experience %d never sampled", a)
		}
	}
}

func TestReplayPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewReplay(0) did not panic")
			}
		}()
		NewReplay(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SampleInto from empty replay did not panic")
			}
		}()
		r := NewReplay(1)
		r.Codec = verbatim{}
		r.SampleInto(rand.New(rand.NewSource(1)), make([]*Experience, 1))
	}()
}

func TestQuickReplayNeverExceedsCap(t *testing.T) {
	f := func(capacity8 uint8, n16 uint16) bool {
		capacity := int(capacity8)%50 + 1
		r := NewReplay(capacity)
		for i := 0; i < int(n16)%500; i++ {
			r.Add(transition(Experience{Action: i}))
		}
		return r.Len() <= capacity && r.Cap() == capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDQLDefaults(t *testing.T) {
	d := NewDQL(newNet(1, 4, 6, 3), DQLConfig{})
	if d.Cfg.Gamma != 0.5 || d.Cfg.LR != 0.05 || d.Cfg.ReplayCap != 16000 ||
		d.Cfg.BatchSize != 32 || d.Cfg.SyncEvery != 2000 {
		t.Fatalf("harness defaults not applied: %+v", d.Cfg)
	}
	if d.Target == d.Online {
		t.Fatal("target network aliases the online network")
	}
}

// TestDQLLearnsBandit: a two-state contextual bandit where action 0 is right
// in state A and action 1 in state B must be solved by the Q-learner.
func TestDQLLearnsBandit(t *testing.T) {
	d := NewDQL(newNet(2, 2, 8, 2), DQLConfig{
		Gamma: 0.1, LR: 0.05, BatchSize: 8, ReplayCap: 512, SyncEvery: 100,
	})
	rng := rand.New(rand.NewSource(3))
	stateA := []float64{1, 0}
	stateB := []float64{0, 1}
	for i := 0; i < 3000; i++ {
		s, best := stateA, 0
		if rng.Intn(2) == 1 {
			s, best = stateB, 1
		}
		a := rng.Intn(2) // uniformly explore
		reward := 0.0
		if a == best {
			reward = 1
		}
		observe(d, Experience{State: sparse(s), Action: a, Reward: reward, Next: sparse(s), NextValid: []int{0, 1}})
		d.TrainBatch(rng)
	}
	qa := d.Online.Forward(stateA)
	if !(qa[0] > qa[1]) {
		t.Fatalf("state A Q = %v, want action 0 preferred", qa)
	}
	qb := d.Online.Forward(stateB)
	if !(qb[1] > qb[0]) {
		t.Fatalf("state B Q = %v, want action 1 preferred", qb)
	}
}

// TestDQLBellmanTarget: with a frozen target network, one update moves
// Q(s,a) toward r + gamma*max_valid Q(s').
func TestDQLBellmanTarget(t *testing.T) {
	d := NewDQL(newNet(4, 3, 8, 3), DQLConfig{
		Gamma: 0.9, LR: 0.05, BatchSize: 1, ReplayCap: 8, SyncEvery: 1 << 30,
	})
	s := []float64{0.1, 0.2, 0.3}
	next := []float64{0.4, 0.5, 0.6}

	qNext := d.Target.Forward(next)
	// Restrict the bootstrap to action 2.
	want := 1.0 + 0.9*qNext[2]
	before := d.Online.Forward(s)[1]

	observe(d, Experience{State: sparse(s), Action: 1, Reward: 1, Next: sparse(next), NextValid: []int{2}})
	d.TrainBatch(rand.New(rand.NewSource(1)))

	after := d.Online.Forward(s)[1]
	if math.Abs(after-want) >= math.Abs(before-want) {
		t.Fatalf("Q did not move toward target: before %.4f after %.4f want %.4f",
			before, after, want)
	}
}

func TestDQLTerminalExperience(t *testing.T) {
	d := NewDQL(newNet(5, 2, 4, 2), DQLConfig{
		Gamma: 0.9, LR: 0.1, BatchSize: 1, ReplayCap: 4, SyncEvery: 1 << 30,
	})
	s := []float64{1, 0}
	// Terminal: Next is not read; target is the raw reward.
	observe(d, Experience{State: sparse(s), Action: 0, Reward: 2, Terminal: true})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		d.TrainBatch(rng)
	}
	if got := d.Online.Forward(s)[0]; math.Abs(got-2) > 0.2 {
		t.Fatalf("terminal Q = %.3f, want ~2", got)
	}
}

func TestDQLTargetSync(t *testing.T) {
	d := NewDQL(newNet(6, 2, 4, 2), DQLConfig{
		Gamma: 0.5, LR: 0.1, BatchSize: 1, ReplayCap: 4, SyncEvery: 10,
	})
	s := []float64{1, 1}
	observe(d, Experience{State: sparse(s), Action: 0, Reward: 1, Terminal: true})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		d.TrainBatch(rng)
	}
	// After exactly SyncEvery steps the target must equal the online net.
	on := d.Online.Forward(s)
	onCopy := append([]float64(nil), on...)
	tg := d.Target.Forward(s)
	for i := range onCopy {
		if onCopy[i] != tg[i] {
			t.Fatalf("target not synced after SyncEvery steps: %v vs %v", onCopy, tg)
		}
	}
	if d.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", d.Steps())
	}
}

// TestTrainBatchChunkedMatchesSequential is the regression test for the
// ForwardBatchFast scratch-aliasing contract: TrainBatch's chunked target
// inference returns rows that alias the target network's batch scratch, and a
// bug that read a row after the next chunk's batched call (i.e. a stale row)
// would silently train on the wrong Bellman targets. The test forces multiple
// chunks and mid-batch target syncs (BatchSize 8, SyncEvery 3 => chunks of
// 3/3/2 with a CopyFrom between), then replays the identical sample sequence
// through a reference learner that writes each experience's states out
// densely and calls Target.Forward and Online.TrainAction once per experience —
// the unbatched, dense loop the chunking must be equivalent to. One successor
// in seven is an empty vector, an all-zero state that bootstraps like any
// other and is not a terminal. Final policies must
// agree to within FMA-contraction noise; a stale-row bug perturbs targets at
// full magnitude and blows through the tolerance by many orders.
func TestTrainBatchChunkedMatchesSequential(t *testing.T) {
	const (
		in, hidden, out = 6, 12, 4
		batch           = 8
		syncEvery       = 3
		rounds          = 40
		seed            = 31
	)
	build := func() *DQL {
		return NewDQL(newNet(seed, in, hidden, out), DQLConfig{
			Gamma: 0.9, LR: 0.02, BatchSize: batch, ReplayCap: 64,
			SyncEvery: syncEvery,
		})
	}
	fill := func(d *DQL) {
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 48; i++ {
			s := make([]float64, in)
			next := make([]float64, in)
			for j := range s {
				if rng.Intn(3) > 0 {
					s[j] = rng.Float64()
				}
				if rng.Intn(3) > 0 && i%7 != 0 {
					next[j] = rng.Float64()
				}
			}
			e := Experience{State: sparse(s), Action: rng.Intn(out), Reward: rng.Float64(), Next: sparse(next)}
			if i%5 == 0 {
				e.Terminal = true
			} else if i%3 == 0 {
				e.NextValid = []int{0, 2}
			}
			observe(d, e)
		}
	}

	chunked := build()
	fill(chunked)
	rngC := rand.New(rand.NewSource(seed + 2))
	for r := 0; r < rounds; r++ {
		chunked.TrainBatch(rngC)
	}

	// Reference: identical nets, replay, and RNG draws, but one dense
	// Target.Forward per experience — no batching, no aliased rows.
	ref := build()
	fill(ref)
	rngR := rand.New(rand.NewSource(seed + 2))
	sample := make([]*Experience, batch)
	steps := int64(0)
	for r := 0; r < rounds; r++ {
		ref.Replay.SampleInto(rngR, sample)
		for _, e := range sample {
			target := e.Reward
			if !e.Terminal {
				q := ref.Target.Forward(dense(e.Next, in))
				var best float64
				if len(e.NextValid) > 0 {
					best = q[e.NextValid[0]]
					for _, a := range e.NextValid[1:] {
						if q[a] > best {
							best = q[a]
						}
					}
				} else {
					best = q[0]
					for _, v := range q[1:] {
						if v > best {
							best = v
						}
					}
				}
				target += ref.Cfg.Gamma * best
			}
			ref.Online.TrainAction(dense(e.State, in), e.Action, target, ref.Cfg.LR)
			steps++
			if steps%syncEvery == 0 {
				ref.Target.CopyFrom(ref.Online)
			}
		}
	}

	// Compare the learned policies on probe states. ForwardBatchFast may
	// drift from Forward by ULPs per call; over 320 updates that compounds
	// to at most ~1e-9 here. A stale-row bug injects O(1) target errors.
	probes := rand.New(rand.NewSource(seed + 3))
	for p := 0; p < 16; p++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = probes.Float64()
		}
		got := chunked.Online.Forward(x)
		want := append([]float64(nil), ref.Online.Forward(x)...)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-6 {
				t.Fatalf("probe %d out %d: chunked %v vs sequential reference %v",
					p, j, got[j], want[j])
			}
		}
	}
}

// trainBatchFullRows is TrainBatch with every successor's Q-row computed in
// full (outs nil) before the Bellman max: the same draws, chunks and syncs.
func trainBatchFullRows(d *DQL, rng *rand.Rand) float64 {
	batch := make([]*Experience, d.Cfg.BatchSize)
	d.Replay.SampleInto(rng, batch)
	total := 0.0
	for start := 0; start < len(batch); {
		chunk := min(len(batch)-start, int(d.Cfg.SyncEvery-d.steps%d.Cfg.SyncEvery))
		var ns []nn.SparseVec
		for _, e := range batch[start : start+chunk] {
			if !e.Terminal {
				ns = append(ns, e.Next)
			}
		}
		qs := d.Target.ForwardBatchFastSparse(ns, nil)
		for _, e := range batch[start : start+chunk] {
			target := e.Reward
			if !e.Terminal {
				target += d.Cfg.Gamma * bootstrap(qs[0], e.NextValid)
				qs = qs[1:]
			}
			total += d.Online.TrainActionSparse(e.State, e.Action, target, d.Cfg.LR)
			if d.steps++; d.steps%d.Cfg.SyncEvery == 0 {
				d.Target.CopyFrom(d.Online)
			}
		}
		start += chunk
	}
	return total / float64(len(batch))
}

// TestTrainBatchMatchesFullRows: TrainBatch asks the target network for each
// successor's NextValid outputs alone, and must train exactly as a learner
// that computes every Q-value: the same loss after every batch and the same
// weights, bit for bit, over batches of 13 that straddle a target sync every
// 37 steps, terminal experiences, successors without a NextValid (a max over
// all outputs) and NextValid lists of every length, repeats included.
func TestTrainBatchMatchesFullRows(t *testing.T) {
	build := func() *DQL {
		d := NewDQL(newNet(41, 504, 42, 42), DQLConfig{
			BatchSize: 13, ReplayCap: 400, SyncEvery: 37, LR: 0.05, Gamma: 0.7,
		})
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < d.Replay.Cap(); i++ {
			e := Experience{
				State:  sparse(sparseStateVec(rng, 504, 12, 1+rng.Intn(4))),
				Action: rng.Intn(42),
				Reward: rng.Float64(),
				Next:   sparse(sparseStateVec(rng, 504, 12, rng.Intn(5))),
			}
			for k := rng.Intn(6); k > 0; k-- {
				e.NextValid = append(e.NextValid, rng.Intn(42))
			}
			e.Terminal = i%11 == 3
			observe(d, e)
		}
		return d
	}
	got, want := build(), build()
	rngGot, rngWant := rand.New(rand.NewSource(47)), rand.New(rand.NewSource(47))
	for b := 0; b < 60; b++ {
		if l, w := got.TrainBatch(rngGot), trainBatchFullRows(want, rngWant); math.Float64bits(l) != math.Float64bits(w) {
			t.Fatalf("batch %d: loss %v, full-row reference %v", b, l, w)
		}
	}
	if got.Steps() != want.steps || got.Steps() != 60*13 {
		t.Fatalf("steps %d, reference %d", got.Steps(), want.steps)
	}
	for _, pair := range [][2]*nn.MLP{{got.Online, want.Online}, {got.Target, want.Target}} {
		pair[0].WriteBack()
		pair[1].WriteBack()
		for l, layer := range pair[1].Layers {
			for k, params := range [][2][]float64{{pair[0].Layers[l].W, layer.W}, {pair[0].Layers[l].B, layer.B}} {
				for i, v := range params[1] {
					if math.Float64bits(params[0][i]) != math.Float64bits(v) {
						t.Fatalf("layer %d %s %d: %v, full-row reference %v", l, [2]string{"weight", "bias"}[k], i, params[0][i], v)
					}
				}
			}
		}
	}
}

// TestTrainOfflineMatchesDenseReference: TrainOffline, which decodes each
// draw from the dataset's records and asks the target network for the
// NextValid outputs only, leaves the online network with exactly the weights
// of a loop that draws the same experiences, writes every state out densely,
// computes all Q-values with Target.Forward and steps with Online.TrainAction
// — over experiences with and without NextValid, terminal ones, and empty
// successors.
func TestTrainOfflineMatchesDenseReference(t *testing.T) {
	const in, hidden, out, syncEvery, epochs = 24, 9, 6, 37, 3
	cfg := DQLConfig{Gamma: 0.8, LR: 0.03, SyncEvery: syncEvery}
	rng := rand.New(rand.NewSource(77))
	data := NewDataset(verbatim{in, out})
	var exps []Experience
	for i := 0; i < 120; i++ {
		e := Experience{
			State:  sparse(sparseStateVec(rng, in, 4, 1+rng.Intn(3))),
			Action: rng.Intn(out),
			Reward: rng.Float64(),
			Next:   sparse(sparseStateVec(rng, in, 4, rng.Intn(3))),
		}
		switch i % 4 {
		case 0:
			e.Terminal = true
		case 1, 2:
			e.NextValid = rng.Perm(out)[:1+rng.Intn(3)]
		}
		data.Add(transition(e))
		exps = append(exps, e)
	}

	d := NewDQL(newNet(78, in, hidden, out), cfg)
	last := d.TrainOffline(rand.New(rand.NewSource(79)), data, epochs)

	ref := NewDQL(newNet(78, in, hidden, out), cfg)
	draw := rand.New(rand.NewSource(79))
	var refLast float64
	for ep, steps := 0, 0; ep < epochs; ep++ {
		total := 0.0
		for i := 0; i < len(exps); i++ {
			e := &exps[draw.Intn(len(exps))]
			target := e.Reward
			if !e.Terminal {
				q := ref.Target.Forward(dense(e.Next, in))
				valid := e.NextValid
				if len(valid) == 0 {
					valid = []int{0, 1, 2, 3, 4, 5}
				}
				best := q[valid[0]]
				for _, a := range valid[1:] {
					if q[a] > best {
						best = q[a]
					}
				}
				target += cfg.Gamma * best
			}
			total += ref.Online.TrainAction(dense(e.State, in), e.Action, target, cfg.LR)
			if steps++; steps%syncEvery == 0 {
				ref.Target.CopyFrom(ref.Online)
			}
		}
		refLast = total / float64(len(exps))
	}

	if math.Float64bits(last) != math.Float64bits(refLast) || d.Steps() != int64(epochs*len(exps)) {
		t.Fatalf("final-epoch TD error %v after %d steps, dense reference %v", last, d.Steps(), refLast)
	}
	d.Online.WriteBack()
	ref.Online.WriteBack()
	for l, layer := range d.Online.Layers {
		for i, w := range layer.W {
			if math.Float64bits(w) != math.Float64bits(ref.Online.Layers[l].W[i]) {
				t.Fatalf("layer %d weight %d: %v, dense reference %v", l, i, w, ref.Online.Layers[l].W[i])
			}
		}
	}
}

// TestTrainOfflineStopsAtSmuggledIndex: a record whose state would decode
// with an index outside the state is refused when its codec decodes it — nn's
// entry check sees only a list's first and last index, and its kernels write
// weights at the indices they are given. LoadDataset reports the refusal as
// an error; TrainOffline, on a dataset built in memory, stops with a panic
// and never reaches memory outside the network.
func TestTrainOfflineStopsAtSmuggledIndex(t *testing.T) {
	for _, mid := range []int32{60, -1, 1 << 30} {
		data := NewDataset(verbatim{60, 15})
		data.Add(transition(Experience{State: nn.SparseVec{Idx: []int32{3, mid, 59}, Val: []float64{1, 1, 1}}, Action: 2, Reward: 1, Terminal: true}))
		var buf bytes.Buffer
		if err := data.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDataset(&buf, verbatim{60, 15}); err == nil || !strings.HasPrefix(err.Error(), "rl: load dataset: record 0: decode: ") {
			t.Errorf("LoadDataset of a record with index %d: error %v", mid, err)
		}
		d := NewDQL(newNet(5, 60, 15, 15), DQLConfig{})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TrainOffline trained on a record with index %d", mid)
				}
			}()
			d.TrainOffline(rand.New(rand.NewSource(1)), data, 1)
		}()
		d.Online.WriteBack()
		for l, layer := range d.Online.Layers {
			for i, w := range layer.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("index %d: layer %d weight %d is %v after the refused record", mid, l, i, w)
				}
			}
		}
	}
}

func TestTrainBatchEmptyReplayNoop(t *testing.T) {
	d := NewDQL(newNet(7, 2, 4, 2), DQLConfig{})
	if loss := d.TrainBatch(rand.New(rand.NewSource(1))); loss != 0 {
		t.Fatalf("empty replay training returned %v", loss)
	}
	if d.Steps() != 0 {
		t.Fatal("empty replay training advanced steps")
	}
}

// TestLossIsLastBatchLoss: Loss is what the last TrainBatch that trained
// returned, and a TrainBatch on empty replay leaves it alone.
func TestLossIsLastBatchLoss(t *testing.T) {
	d := NewDQL(newNet(3, 4, 5, 2), DQLConfig{BatchSize: 2, SyncEvery: 4})
	rng := rand.New(rand.NewSource(7))
	d.TrainBatch(rng)
	if d.Loss() != 0 {
		t.Fatalf("Loss %v before any batch trained, want 0", d.Loss())
	}
	for i := 0; i < 6; i++ {
		observe(d, Experience{
			State:    sparse([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}),
			Action:   i % 2,
			Reward:   rng.Float64(),
			Terminal: true,
		})
	}
	for i := 0; i < 5; i++ {
		loss := d.TrainBatch(rng)
		if loss == 0 || d.Loss() != loss {
			t.Fatalf("batch %d: Loss %v, TrainBatch returned %v", i, d.Loss(), loss)
		}
	}
}

func TestRewardKindString(t *testing.T) {
	if RewardGlobalAge.String() != "global_age" ||
		RewardAccLatency.String() != "acc_latency" ||
		RewardLinkUtil.String() != "link_util" {
		t.Fatal("reward names wrong")
	}
}

func buildLoadedNet(t *testing.T) *noc.Network {
	t.Helper()
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: 1})
	net.SetPolicy(firstPolicy{})
	// Generate a bit of traffic so utilization and windows are non-trivial.
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[3].ID, SizeFlits: 5})
	cores[1].Inject(&noc.Message{ID: 2, Dst: cores[2].ID, SizeFlits: 5})
	net.Step()
	return net
}

type firstPolicy struct{}

func (firstPolicy) Name() string                                    { return "first" }
func (firstPolicy) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }

func TestRewardGlobalAge(t *testing.T) {
	tr := NewRewardTracker(RewardGlobalAge)
	cands := []noc.Candidate{
		{Msg: &noc.Message{InjectCycle: 50}},
		{Msg: &noc.Message{InjectCycle: 10}}, // oldest
		{Msg: &noc.Message{InjectCycle: 30}},
	}
	if r := tr.DecisionReward(nil, cands, 1); r != 1 {
		t.Fatalf("oldest pick reward = %v, want 1", r)
	}
	if r := tr.DecisionReward(nil, cands, 0); r != 0 {
		t.Fatalf("non-oldest pick reward = %v, want 0", r)
	}
	// Ties: any candidate sharing the oldest inject cycle earns the reward.
	cands[0].Msg.InjectCycle = 10
	if r := tr.DecisionReward(nil, cands, 0); r != 1 {
		t.Fatalf("tied-oldest reward = %v, want 1", r)
	}
}

func TestRewardLinkUtil(t *testing.T) {
	net := buildLoadedNet(t)
	tr := NewRewardTracker(RewardLinkUtil)
	tr.OnCycle(net)
	if tr.current <= 0 || tr.current > 1 {
		t.Fatalf("link-util reward = %v, want in (0,1]", tr.current)
	}
	cands := []noc.Candidate{{Msg: &noc.Message{}}, {Msg: &noc.Message{}}}
	if r := tr.DecisionReward(nil, cands, 0); r != tr.current {
		t.Fatal("link-util reward must not depend on the decision")
	}
}

func TestRewardAccLatencyPeriodic(t *testing.T) {
	net := buildLoadedNet(t)
	tr := NewRewardTracker(RewardAccLatency)
	for i := 0; i < 20; i++ { // two sampling periods
		net.Step()
		tr.OnCycle(net)
	}
	if tr.current <= 0 || tr.current > 1 {
		t.Fatalf("acc-latency reward = %v, want in (0,1]", tr.current)
	}
	// Idle network: at its next sample the reward goes to the no-traffic
	// value of 1.
	net.Drain(100)
	net.TakeDeliveryWindow()
	for done := false; !done; {
		net.Step()
		tr.OnCycle(net)
		done = net.Cycle()%rewardPeriod == 0
	}
	if tr.current != 1 {
		t.Fatalf("idle acc-latency reward = %v, want 1", tr.current)
	}
}

// FuzzTransitionRoundTrip: parseTransition gives back every transition
// appendTransition wrote, bit for bit (a terminal's successor is not stored),
// at its exact length whatever follows it, and refuses every strict prefix of
// it, a header cut short included, without panicking.
func FuzzTransitionRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, action, reward uint64, terminal bool, state, next []byte) {
		in := Transition{State: state, Action: int(action >> 1), Reward: math.Float64frombits(reward), Next: next, Terminal: terminal}
		b := appendTransition(nil, in)
		got, n, ok := parseTransition(append(b, 0xff, 1, 2))
		if terminal {
			in.Next = nil
		}
		if !ok || n != len(b) || got.Action != in.Action || got.Terminal != in.Terminal ||
			math.Float64bits(got.Reward) != reward || !bytes.Equal(got.State, in.State) || !bytes.Equal(got.Next, in.Next) {
			t.Fatalf("%+v stored as %x parses to %+v, %d bytes, ok %t", in, b, got, n, ok)
		}
		for cut := range b {
			if _, _, ok := parseTransition(b[:cut]); ok {
				t.Fatalf("the first %d of the %d bytes of %+v parse", cut, len(b), in)
			}
		}
	})
}

package core

import (
	"math/rand"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
	"mlnoc/internal/traffic"
)

// benchTrainLoop is Train's mesh environment at its default, quick scale (4x4
// mesh, 3 VCs, batch 32, one training batch per cycle) without the epoch
// loop, so a benchmark iteration is exactly one training cycle. It returns
// the environment's step 8000 cycles in: the 16 000-experience replay ring
// fills after about 6 000, and until it does, and evictions feed the agent's
// freelists, every decision allocates its state.
func benchTrainLoop(seed int64) (step func()) {
	s := TrainSpec{Seed: seed}
	s.applyDefaults()
	_, _, step = newTrainRun(s)
	for i := 0; i < 8000; i++ {
		step()
	}
	return step
}

func BenchmarkHotTrainingLoop(b *testing.B) {
	step := benchTrainLoop(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// benchSelectSite builds a training agent plus a standing three-way
// arbitration at one (router, output) site, exercising the full Select path:
// state build, Q-inference, pending-decision bookkeeping and replay writes.
func benchSelectSite() (*Agent, *noc.ArbContext, []noc.Candidate) {
	spec := MeshSpec(3)
	agent := NewAgent(spec, AgentConfig{
		DQL:  rl.DQLConfig{ReplayCap: 256, BatchSize: 2},
		Seed: 5,
	})
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2})
	mk := func(id uint64, src, dst int) *noc.Message {
		return &noc.Message{
			ID: id, Src: cores[src].ID, Dst: cores[dst].ID,
			SizeFlits: 1, GenCycle: 1, InjectCycle: 2,
			Distance: 3, HopCount: 1, ArrivalCycle: 50, ArrivalGap: 4,
		}
	}
	cands := []noc.Candidate{
		{Port: noc.PortWest, VC: 0, Msg: mk(1, 4, 3)},
		{Port: noc.PortEast, VC: 1, Msg: mk(2, 6, 0)},
		{Port: noc.PortCore, VC: 2, Msg: mk(3, 5, 12)},
	}
	ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(1, 1), Out: noc.PortNorth, Cycle: 100}
	return agent, ctx, cands
}

func BenchmarkHotAgentSelect(b *testing.B) {
	agent, ctx, cands := benchSelectSite()
	for i := 0; i < 1024; i++ {
		agent.Select(ctx, cands)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Select(ctx, cands)
	}
}

// TestAgentSelectZeroAllocs pins the zero-allocation contract: once the
// replay ring is full and evictions feed the size lists, a training-mode
// Select performs no heap allocations, whether a site always asks for one
// size or its candidate count changes from call to call, and neither does a
// whole cycle of the training loop (traffic, a Step whose arbitration is the
// agent's, and its TrainBatch).
func TestAgentSelectZeroAllocs(t *testing.T) {
	agent, ctx, cands := benchSelectSite()
	// ReplayCap is 256; 1024 decisions guarantee the ring wrapped and the
	// state/valid lists are warm.
	for i := 0; i < 1024; i++ {
		agent.Select(ctx, cands)
	}
	if allocs := testing.AllocsPerRun(200, func() { agent.Select(ctx, cands) }); allocs != 0 {
		t.Errorf("Select allocates %v objects per decision, want 0", allocs)
	}

	// Two, three and five candidates in turn: the lists hold three sizes, and
	// a request whose own list is empty borrows from a larger one.
	agent, ctx, cands = benchSelectSite()
	cands = append(cands,
		noc.Candidate{Port: noc.PortSouth, VC: 0, Msg: cands[0].Msg},
		noc.Candidate{Port: noc.PortNorth, VC: 1, Msg: cands[1].Msg})
	sizes := []int{2, 3, 5}
	calls := 0
	mixed := func() {
		agent.Select(ctx, cands[:sizes[calls%len(sizes)]])
		calls++
	}
	for i := 0; i < 1024; i++ {
		mixed()
	}
	if allocs := testing.AllocsPerRun(201, mixed); allocs != 0 {
		t.Errorf("Select over 2, 3 and 5 candidates allocates %v objects per decision, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, benchTrainLoop(3)); allocs != 0 {
		t.Errorf("a training-loop cycle allocates %v objects, want 0", allocs)
	}
}

// TestStateRecyclingNoAliasing drives a small-ring training agent long enough
// for heavy slice recycling, then checks the freelist safety invariant: no two
// live experiences share a State buffer, and nothing on the size lists aliases
// a live State, Next or pending-decision state. A violation here would mean a
// recycled vector is being overwritten while a replay tuple still reads it.
// Candidate sets of different sizes come and go, so vectors are borrowed by
// states narrower than the ones they were made for: every vector must sit on
// the list its own capacity names, takeState must hand out only vectors that
// fit, and a borrowed vector must come back to its own list.
func TestStateRecyclingNoAliasing(t *testing.T) {
	spec := MeshSpec(3)
	fw := spec.Features.Width()
	agent := NewAgent(spec, AgentConfig{
		DQL:  rl.DQLConfig{ReplayCap: 64, BatchSize: 4, SyncEvery: 50, LR: 0.05, Gamma: 0.5},
		Seed: 8,
	})
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2})
	net.SetPolicy(agent)
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.35, rand.New(rand.NewSource(12)))
	in.Classes = 3
	net.OnCycle = agent.OnCycle
	evictions := 0
	recycle := agent.DQL.Replay.OnEvict
	agent.DQL.Replay.OnEvict = func(e *rl.Experience) {
		evictions++
		recycle(e)
	}
	for i := 0; i < 3000; i++ {
		in.Tick()
		net.Step()
	}

	// An experience's Next legitimately aliases a younger experience's State
	// (that is the s' = next s chaining), so only State-vs-State duplication
	// is a bug; the size lists must alias none of them. A vector is
	// identified by the start of its Val storage, which its Idx storage is
	// made and recycled with.
	key := func(v nn.SparseVec) *float64 { return &v.Val[:1][0] }
	states := map[*float64]int{}
	live := map[*float64]bool{}
	rooms := map[int]bool{}
	r := agent.DQL.Replay
	for i := 0; i < r.Len(); i++ {
		e := r.At(i)
		if j, dup := states[key(e.State)]; dup {
			t.Fatalf("experiences %d and %d share one State buffer", j, i)
		}
		states[key(e.State)] = i
		live[key(e.State)] = true
		if !e.Terminal {
			live[key(e.Next)] = true
		}
		if err := e.State.Validate(spec.InputSize()); err != nil {
			t.Fatalf("experience %d holds a malformed state: %v", i, err)
		}
		rooms[cap(e.State.Idx)] = true
	}
	for _, p := range agent.pending {
		live[key(p.state)] = true
	}
	for k, list := range agent.stateFree {
		for i, s := range list {
			if live[key(s)] {
				t.Fatalf("size list %d entry %d aliases a live state buffer", k, i)
			}
			if cap(s.Idx) != k*fw || cap(s.Val) != k*fw {
				t.Fatalf("size list %d (room %d) holds a vector of capacity %d/%d", k, k*fw, cap(s.Idx), cap(s.Val))
			}
		}
	}
	for k, list := range agent.validFree {
		for i, v := range list {
			if cap(v) != k {
				t.Fatalf("NextValid size list %d entry %d has capacity %d", k, i, cap(v))
			}
		}
	}
	if len(rooms) < 2 {
		t.Fatalf("live states use %d room(s), want several: mixed sizes untested", len(rooms))
	}

	// takeState pops the nearest non-empty list that fits, handing out at
	// least the room asked for, and the vector goes back to the list it came
	// from, however narrow the state it was taken for.
	take := func(room int) {
		t.Helper()
		from := (room + fw - 1) / fw
		for from < len(agent.stateFree) && len(agent.stateFree[from]) == 0 {
			from++
		}
		s := agent.takeState(room)
		if cap(s.Idx) < room || cap(s.Val) < room {
			t.Fatalf("takeState(%d) returned capacity %d/%d", room, cap(s.Idx), cap(s.Val))
		}
		if from == len(agent.stateFree) {
			return // nothing fits: a new vector
		}
		recycle(&rl.Experience{State: agent.Spec.BuildSparse(s, net, net.Cycle(), nil)})
		if list := agent.stateFree[from]; len(list) == 0 || key(list[len(list)-1]) != key(s) || cap(s.Idx) != from*fw {
			t.Fatalf("a vector taken from size list %d for room %d did not go back to it", from, room)
		}
	}
	for room := range rooms {
		take(room)
	}
	// Borrowing, for certain: with list 2 empty, room 2*fw takes list 3's
	// vector, never list 1's.
	vec := func(room int) nn.SparseVec {
		return nn.SparseVec{Idx: make([]int32, 0, room), Val: make([]float64, 0, room)}
	}
	agent.stateFree = [][]nn.SparseVec{1: {vec(fw)}, 3: {vec(3 * fw)}}
	take(2 * fw)
	if evictions == 0 {
		t.Fatal("run too short: replay ring never evicted, invariant untested")
	}
}

// TestReplayStateFootprint runs apu_train's warm-up from the public API: a
// 504-input, 42-hidden training agent on the APU, bfs at OpScale 0.25
// relaunched on completion, 2 500 cycles collecting experiences without a
// batch step, so exploring at EpsStart throughout. The ring is full by then, and its states and NextValid slices
// must be sized for their own arbitrations: vectors all made for the widest
// state seen (eight candidates) and NextValid for all 42 actions held 22.1 MB,
// sized by their own candidates they hold 5.8 MB. The total of used entries
// is the states' own content, which sizing must not change.
func TestReplayStateFootprint(t *testing.T) {
	const seed = 17
	agent := NewAgent(APUSpec(), AgentConfig{
		Hidden:         42,
		DQL:            rl.DQLConfig{ReplayCap: 16000},
		EpsStart:       0.5,
		EpsDecayCycles: 25_000,
		Seed:           seed,
	})
	model, err := synfull.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	sys := apu.NewSystem(apu.Config{}, seed+11)
	sys.Net.SetPolicy(agent)
	var runner *apu.Runner
	for launches, i := int64(0), 0; i < 2500; i++ {
		if runner == nil || runner.Done() {
			runner = apu.NewRunner(sys, apu.Homogeneous(model), apu.RunnerConfig{OpScale: 0.25, Seed: seed + 101*launches})
			launches++
		}
		runner.Step()
	}

	r := agent.DQL.Replay
	if r.Len() != 16000 {
		t.Fatalf("ring holds %d experiences, want 16000", r.Len())
	}
	var bytes, used int
	for i := 0; i < r.Len(); i++ {
		e := r.At(i)
		bytes += cap(e.State.Idx)*4 + cap(e.State.Val)*8 + cap(e.NextValid)*8
		used += len(e.State.Idx)
	}
	t.Logf("%d used entries, %.2f MB of capacity", used, float64(bytes)/1e6)
	if used != 282532 {
		t.Errorf("states hold %d entries, want 282532", used)
	}
	if bytes >= 7e6 {
		t.Errorf("states and NextValid take %.1f MB of capacity, want under 7 MB", float64(bytes)/1e6)
	}
}

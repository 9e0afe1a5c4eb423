package core

import (
	"slices"
	"testing"

	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
)

// benchTrainLoop is Train on the Section 3.2 4x4 mesh with its default
// settings (3 VCs, batch 32, one training batch per cycle) without the epoch
// loop, so a benchmark iteration is exactly one training cycle. It returns
// the environment's step 8000 cycles in: the 16 000-experience replay ring
// fills after about 6 000, and until it does its arena grows.
func benchTrainLoop(seed int64) (step func()) {
	agent := NewAgent(MeshSpec(3), AgentConfig{EpsStart: 0.5, EpsDecayCycles: 10_000, Seed: seed})
	_, step = sectionMesh(4, seed).Start(agent)
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
// The candidates come in ascending (port, VC) order, the order the engine
// hands every arbitration over in, so the state build takes the lookup path
// real arbitrations take.
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
		{Port: noc.PortCore, VC: 2, Msg: mk(3, 5, 12)},
		{Port: noc.PortWest, VC: 0, Msg: mk(1, 4, 3)},
		{Port: noc.PortEast, VC: 1, Msg: mk(2, 6, 0)},
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
// size or its candidate count changes from call to call, and whether its
// candidates come in the engine's order or out of it (the state build's slow
// path), and neither does a
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
	reversed := slices.Clone(cands)
	slices.Reverse(reversed)
	if allocs := testing.AllocsPerRun(200, func() { agent.Select(ctx, reversed) }); allocs != 0 {
		t.Errorf("Select over candidates out of engine order allocates %v objects per decision, want 0", allocs)
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

// apuWarmAgent runs apu_train's warm-up from the public API: a 504-input,
// 42-hidden training agent on the APU, bfs at OpScale 0.25 relaunched on
// completion, 2 500 cycles collecting experiences without a batch step (the
// environment's OnCycle hook is taken out), so exploring at EpsStart
// throughout. The 16 000-experience ring is full by then.
func apuWarmAgent(tb testing.TB) *Agent {
	const seed = 17
	agent := NewAgent(APUSpec(), AgentConfig{
		Hidden:         42,
		DQL:            rl.DQLConfig{ReplayCap: 16000},
		EpsStart:       0.5,
		EpsDecayCycles: 25_000,
		Seed:           seed,
	})
	net, step := apuLoop("bfs", 0.25, seed).Start(agent)
	net.OnCycle = nil
	for i := 0; i < 2500; i++ {
		step()
	}
	if r := agent.DQL.Replay; r.Len() != r.Cap() {
		tb.Fatalf("ring holds %d experiences, want %d", r.Len(), r.Cap())
	}
	return agent
}

// TestReplayStateFootprint: after apu_train's warm-up the ring keeps its 16 000
// experiences as records in an arena under 2 MB, where the same states stored
// as float vectors sized by their own candidates took 8.35 MB (5.8 MB of
// vectors and NextValid slices, 2.3 MB of ring slots). The decoded states hold
// 282 532 entries in all, the states' own content, which the way they are
// stored must not change.
func TestReplayStateFootprint(t *testing.T) {
	r := apuWarmAgent(t).DQL.Replay
	used := 0
	for i := 0; i < r.Len(); i++ {
		used += len(r.At(i).State.Idx)
	}
	t.Logf("%d used entries, %.2f MB of arena", used, float64(r.ArenaBytes())/1e6)
	if used != 282532 {
		t.Errorf("states hold %d entries, want 282532", used)
	}
	if r.ArenaBytes() >= 2e6 {
		t.Errorf("the arena takes %.2f MB, want under 2 MB", float64(r.ArenaBytes())/1e6)
	}
}

// BenchmarkHotAPUTrainBatch is one training batch of the APU agent on the
// ring apu_train's warm-up fills: 32 experiences drawn and decoded, 32
// bootstraps on the target and 32 SGD steps on the online network.
func BenchmarkHotAPUTrainBatch(b *testing.B) {
	agent := apuWarmAgent(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.DQL.TrainBatch(agent.rng)
	}
}

// BenchmarkHotAPUReplaySample is the draw that starts an APU training batch,
// on the ring apu_train's warm-up fills: 32 experiences sampled and their
// states and successors decoded from their records by the APU spec.
func BenchmarkHotAPUReplaySample(b *testing.B) {
	agent := apuWarmAgent(b)
	dst := make([]*rl.Experience, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.DQL.Replay.SampleInto(agent.rng, dst)
	}
}

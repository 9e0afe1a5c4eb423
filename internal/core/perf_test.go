package core

import (
	"math/rand"
	"testing"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/traffic"
)

// benchTrainLoop replicates the TrainMesh inner loop at quick scale (4x4
// mesh, 3 VCs, batch 32, one training batch per cycle) without the epoch
// reporting wrapper, so a benchmark iteration is exactly one training cycle.
// It returns the loop 8000 cycles in: the 16 000-experience replay ring fills
// after about 6 000, and until it does, and evictions feed the agent's
// freelists, every decision allocates its state.
func benchTrainLoop(seed int64) (*noc.Network, *traffic.Injector) {
	cfg := MeshTrainConfig{Seed: seed}
	cfg.applyDefaults()
	spec := NewStateSpec(
		[]noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
		cfg.VCs, cfg.Features, DefaultNorm())
	agent := NewAgent(spec, AgentConfig{
		DQL:            rl.DQLConfig{BatchSize: 32, LR: 0.05, Gamma: 0.5, ReplayCap: 16000, SyncEvery: 2000},
		EpsStart:       0.5,
		EpsDecayCycles: 10000,
		Seed:           seed,
	})
	net, in := newMeshRun(cfg, agent)
	net.OnCycle = agent.OnCycle
	for i := 0; i < 8000; i++ {
		in.Tick()
		net.Step()
	}
	return net, in
}

func BenchmarkHotTrainingLoop(b *testing.B) {
	net, in := benchTrainLoop(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Tick()
		net.Step()
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
// replay ring is full and evictions feed the freelists, a training-mode Select
// performs no heap allocations, and neither does a whole cycle of the training
// loop (traffic, a Step whose arbitration is the agent's, and its TrainBatch).
func TestAgentSelectZeroAllocs(t *testing.T) {
	agent, ctx, cands := benchSelectSite()
	// ReplayCap is 256; 1024 decisions guarantee the ring wrapped and the
	// state/valid freelists are warm.
	for i := 0; i < 1024; i++ {
		agent.Select(ctx, cands)
	}
	if allocs := testing.AllocsPerRun(200, func() { agent.Select(ctx, cands) }); allocs != 0 {
		t.Errorf("Select allocates %v objects per decision, want 0", allocs)
	}

	net, in := benchTrainLoop(3)
	if allocs := testing.AllocsPerRun(200, func() { in.Tick(); net.Step() }); allocs != 0 {
		t.Errorf("a training-loop cycle allocates %v objects, want 0", allocs)
	}
}

// TestStateRecyclingNoAliasing drives a small-ring training agent long enough
// for heavy slice recycling, then checks the freelist safety invariant: no two
// live experiences share a State buffer, and nothing on the freelists aliases
// a live State, Next or pending-decision state. A violation here would mean a
// recycled vector is being overwritten while a replay tuple still reads it.
// Candidate sets of different sizes come and go, so vectors are recycled into
// states wider than the ones they were made for: every live state must still
// be well-formed, and takeState must hand out only vectors that fit.
func TestStateRecyclingNoAliasing(t *testing.T) {
	spec := MeshSpec(3)
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
	// is a bug; the freelist must alias none of them. A vector is identified
	// by the start of its Val storage, which its Idx storage is made and
	// recycled with.
	key := func(v nn.SparseVec) *float64 { return &v.Val[:1][0] }
	states := map[*float64]int{}
	live := map[*float64]bool{}
	widest := 0
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
		widest = max(widest, len(e.State.Idx))
	}
	for _, p := range agent.pending {
		live[key(p.state)] = true
	}
	for i, s := range agent.stateFree {
		if live[key(s)] {
			t.Fatalf("freelist entry %d aliases a live state buffer", i)
		}
	}
	// Vectors in circulation must come to fit the widest state seen: a too
	// narrow one is dropped when drawn, never grown in place or handed out.
	if agent.widest < widest {
		t.Fatalf("agent sizes new vectors for %d entries, a live state has %d", agent.widest, widest)
	}
	for i := 0; i < 50; i++ {
		if s := agent.takeState(agent.widest); cap(s.Idx) < agent.widest || cap(s.Val) < agent.widest {
			t.Fatalf("takeState(%d) returned capacity %d/%d", agent.widest, cap(s.Idx), cap(s.Val))
		}
	}
	if evictions == 0 {
		t.Fatal("run too short: replay ring never evicted, invariant untested")
	}
}

package core

import (
	"testing"

	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
	"mlnoc/internal/xrand"
)

func TestBucketMonotonic(t *testing.T) {
	prev := uint64(0)
	for v := int64(0); v < 1000; v++ {
		b := bucket(v, 2)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < bucket(%d) = %d", v, b, v-1, prev)
		}
		if b > 3 {
			t.Fatalf("bucket(%d) = %d exceeds 2 bits", v, b)
		}
		prev = b
	}
	if bucket(0, 2) != 0 {
		t.Fatal("bucket(0) != 0")
	}
	if bucket(1000, 2) != 3 {
		t.Fatal("large values must saturate the top bucket")
	}
}

func TestTabularEncodeDiscriminates(t *testing.T) {
	spec := MeshSpec(3)
	a := NewTabularAgent(spec, 1)
	c1 := []noc.Candidate{
		{Port: noc.PortCore, VC: 0, Msg: &noc.Message{ArrivalCycle: 100, HopCount: 0}},
	}
	c2 := []noc.Candidate{
		{Port: noc.PortWest, VC: 0, Msg: &noc.Message{ArrivalCycle: 100, HopCount: 0}},
	}
	c3 := []noc.Candidate{
		{Port: noc.PortCore, VC: 0, Msg: &noc.Message{ArrivalCycle: 50, HopCount: 0}},
	}
	now := int64(100)
	if a.encode(now, c1) == a.encode(now, c2) {
		t.Fatal("different slots encode identically")
	}
	if a.encode(now, c1) == a.encode(now, c3) {
		t.Fatal("different age buckets encode identically")
	}
	// Same discretized situation encodes identically (determinism).
	if a.encode(now, c1) != a.encode(now, c1) {
		t.Fatal("encode not deterministic")
	}
}

func TestTabularAgentLearnsAndGrows(t *testing.T) {
	spec := MeshSpec(3)
	agent := NewTabularAgent(spec, 2)
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 1})
	net.SetPolicy(agent)
	net.OnCycle = agent.OnCycle
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.2, xrand.New(3))
	in.Classes = 3
	for i := 0; i < 4000; i++ {
		in.Tick()
		net.Step()
	}
	if agent.Decisions() == 0 {
		t.Fatal("no contended arbitrations")
	}
	if agent.Table.States() < 100 {
		t.Fatalf("table has only %d states after 4000 cycles", agent.Table.States())
	}
	if agent.Table.Bytes() <= 0 {
		t.Fatal("non-positive table size")
	}
	grew := agent.Table.States()
	agent.Freeze()
	for i := 0; i < 1000; i++ {
		in.Tick()
		net.Step()
	}
	if agent.Table.States() != grew {
		t.Fatal("frozen tabular agent still growing its table")
	}
	net.Drain(100000)
}

func TestQuadrantAssign(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 1})
	assign := QuadrantAssign(4, 4)
	want := map[noc.Coord]int{
		{X: 0, Y: 0}: 0, {X: 3, Y: 0}: 1, {X: 0, Y: 3}: 2, {X: 3, Y: 3}: 3,
		{X: 1, Y: 1}: 0, {X: 2, Y: 2}: 3,
	}
	for _, r := range net.Routers() {
		if w, ok := want[r.Coord]; ok {
			if got := assign(r); got != w {
				t.Fatalf("router %v assigned to %d, want %d", r.Coord, got, w)
			}
		}
	}
}

func TestMultiAgentDispatchAndIsolation(t *testing.T) {
	spec := MeshSpec(3)
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 1})
	m := NewMultiAgent(spec, AgentConfig{Hidden: 8, Seed: 1}, 4, QuadrantAssign(4, 4))
	net.SetPolicy(m)
	net.OnCycle = m.OnCycle

	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.22, xrand.New(5))
	in.Classes = 3
	for i := 0; i < 3000; i++ {
		in.Tick()
		net.Step()
	}
	if m.Decisions() == 0 {
		t.Fatal("multi-agent made no decisions")
	}
	// Every quadrant sees contention under uniform traffic, so every agent
	// must have collected experiences of its own.
	for i, a := range m.Agents {
		if a.DQL.Replay.Len() == 0 {
			t.Fatalf("agent %d collected no experiences", i)
		}
	}
	// Weights must have diverged between agents (independent training).
	w0 := m.Agents[0].Net().Layers[0].W
	w1 := m.Agents[1].Net().Layers[0].W
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("per-quadrant agents share identical weights after training")
	}
	m.Freeze()
	for _, a := range m.Agents {
		if a.Training {
			t.Fatal("Freeze did not propagate")
		}
	}
	net.Drain(100000)
}

func TestMultiAgentValidation(t *testing.T) {
	spec := MeshSpec(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero agents accepted")
			}
		}()
		NewMultiAgent(spec, AgentConfig{}, 0, QuadrantAssign(4, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil assignment accepted")
			}
		}()
		NewMultiAgent(spec, AgentConfig{}, 2, nil)
	}()
	// Out-of-range assignment panics at dispatch.
	m := NewMultiAgent(spec, AgentConfig{Hidden: 4, Seed: 1}, 2,
		func(*noc.Router) int { return 99 })
	net, _ := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: 1})
	ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(0, 0), Out: noc.PortEast, Cycle: 1}
	cands := []noc.Candidate{
		{Port: noc.PortCore, Msg: &noc.Message{SizeFlits: 1}},
		{Port: noc.PortSouth, Msg: &noc.Message{SizeFlits: 1}},
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range assignment accepted")
		}
	}()
	m.Select(ctx, cands)
}

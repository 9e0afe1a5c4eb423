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
	if agent.decisions == 0 {
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

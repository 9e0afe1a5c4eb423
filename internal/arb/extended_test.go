package arb

import (
	"math/rand"
	"testing"

	"mlnoc/internal/noc"
)

func TestWavefrontMatchValid(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 2})
	r := net.RouterAt(1, 1)
	p := NewWavefront()
	for cycle := int64(0); cycle < 12; cycle++ {
		mctx := &noc.MatchContext{Net: net, Router: r, Cycle: cycle}
		reqs := []noc.Request{
			{Out: noc.PortEast, Cands: []noc.Candidate{
				cand(noc.PortWest, 0, 1, 1, 0),
				cand(noc.PortCore, 0, 2, 2, 0),
			}},
			{Out: noc.PortSouth, Cands: []noc.Candidate{
				cand(noc.PortWest, 1, 3, 3, 0),
				cand(noc.PortNorth, 0, 4, 4, 0),
			}},
		}
		grants := p.Match(mctx, reqs)
		if len(grants) != 2 {
			t.Fatalf("grants = %v", grants)
		}
		used := map[noc.PortID]bool{}
		matched := 0
		for i, g := range grants {
			if g < 0 {
				continue
			}
			c := reqs[i].Cands[g]
			if used[c.Port] {
				t.Fatalf("cycle %d: input %v matched twice", cycle, c.Port)
			}
			used[c.Port] = true
			matched++
		}
		// Two outputs, disjoint inputs available: the wavefront sweep must
		// find the maximal matching of size 2.
		if matched != 2 {
			t.Fatalf("cycle %d: matched %d, want 2", cycle, matched)
		}
	}
}

func TestWavefrontRotatesPriority(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 1})
	r := net.RouterAt(1, 1)
	p := NewWavefront()
	// One output, two competing inputs: the diagonal rotation must not grant
	// the same input forever.
	seen := map[noc.PortID]bool{}
	for cycle := int64(0); cycle < noc.MaxPorts*2; cycle++ {
		mctx := &noc.MatchContext{Net: net, Router: r, Cycle: cycle}
		reqs := []noc.Request{{Out: noc.PortEast, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 1, 1, 0),
			cand(noc.PortNorth, 0, 2, 2, 0),
		}}}
		grants := p.Match(mctx, reqs)
		if grants[0] < 0 {
			t.Fatalf("cycle %d: output with requesters left idle", cycle)
		}
		seen[reqs[0].Cands[grants[0]].Port] = true
	}
	if len(seen) != 2 {
		t.Fatalf("wavefront always granted the same input: %v", seen)
	}
}

func TestPingPongAlternates(t *testing.T) {
	ctx, _ := testCtx(t, 1)
	p := NewPingPong()
	// Slots 0 (core) and 5 (east) sit in opposite halves of the tree.
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 1, 1, 0),
		cand(noc.PortEast, 0, 2, 2, 0),
	}
	counts := map[int]int{}
	var last int = -1
	alternations := 0
	for i := 0; i < 10; i++ {
		got := p.Select(ctx, cands)
		counts[got]++
		if last >= 0 && got != last {
			alternations++
		}
		last = got
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("ping-pong not fair between halves: %v", counts)
	}
	if alternations < 9 {
		t.Fatalf("ping-pong did not alternate: %d alternations", alternations)
	}
}

func TestPingPongWorkConserving(t *testing.T) {
	ctx, _ := testCtx(t, 2)
	p := NewPingPong()
	// Only one candidate present: it must always win regardless of toggles.
	cands := []noc.Candidate{cand(noc.PortSouth, 1, 1, 1, 0)}
	for i := 0; i < 8; i++ {
		if got := p.Select(ctx, cands); got != 0 {
			t.Fatalf("sole candidate lost: %d", got)
		}
	}
}

func TestSlackAware(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: 1})
	net.SetPolicy(NewSlackAware())
	// Source 0 has two messages in flight, source 1 has one: the policy must
	// prefer source 1's message (less slack -> more critical).
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	cores[0].Inject(&noc.Message{ID: 2, Dst: cores[3].ID, SizeFlits: 1})
	net.Step()
	net.Step()
	cores[1].Inject(&noc.Message{ID: 3, Dst: cores[3].ID, SizeFlits: 1})
	net.Step()

	p := NewSlackAware()
	ctx := &noc.ArbContext{
		Net:    net,
		Router: net.RouterAt(1, 1),
		Out:    noc.PortCore,
		Cycle:  net.Cycle(),
	}
	cands := []noc.Candidate{
		cand(noc.PortWest, 0, 1, 1, 1),
		cand(noc.PortNorth, 0, 2, 2, 1),
	}
	cands[0].Msg.Src = cores[0].ID
	cands[1].Msg.Src = cores[1].ID
	if got := p.Select(ctx, cands); got != 1 {
		t.Fatalf("slack-aware picked %d, want the low-outstanding source (1)", got)
	}
	net.Drain(1000)
}

// TestExtendedPoliciesDeliver drives each extended policy end to end on a
// loaded mesh to check it never wedges or misroutes.
func TestExtendedPoliciesDeliver(t *testing.T) {
	for _, mk := range []func() noc.Policy{
		func() noc.Policy { return NewWavefront() },
		func() noc.Policy { return NewPingPong() },
		func() noc.Policy { return NewSlackAware() },
	} {
		p := mk()
		net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2, BufferCap: 2})
		net.SetPolicy(p)
		rng := rand.New(rand.NewSource(9))
		var id uint64
		for i := 0; i < 600; i++ {
			if rng.Float64() < 0.5 {
				id++
				src := cores[rng.Intn(len(cores))]
				dst := cores[rng.Intn(len(cores))]
				src.Inject(&noc.Message{
					ID: id, Dst: dst.ID, Class: noc.Class(rng.Intn(2)),
					SizeFlits: int32(1 + 4*rng.Intn(2)),
				})
			}
			net.Step()
		}
		if !net.Drain(100000) {
			t.Fatalf("%s: network did not drain", p.Name())
		}
		if net.Stats().Delivered != int64(id) {
			t.Fatalf("%s: delivered %d of %d", p.Name(), net.Stats().Delivered, id)
		}
	}
}

package arb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlnoc/internal/noc"
	"mlnoc/internal/synth"
)

// testCtx builds a minimal arbitration context on a real 2x2 mesh router.
func testCtx(t *testing.T, vcs int) (*noc.ArbContext, *noc.Network) {
	t.Helper()
	net, _ := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: vcs})
	return &noc.ArbContext{
		Net:    net,
		Router: net.RouterAt(0, 0),
		Out:    noc.PortEast,
		Cycle:  100,
	}, net
}

func cand(port noc.PortID, vc int, inject, arrival int64, hops int) noc.Candidate {
	return noc.Candidate{
		Port: port,
		VC:   vc,
		Msg: &noc.Message{
			InjectCycle:  inject,
			ArrivalCycle: arrival,
			HopCount:     int32(hops),
			SizeFlits:    1,
		},
	}
}

func TestGlobalAgePicksOldest(t *testing.T) {
	ctx, _ := testCtx(t, 2)
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 50, 90, 0),
		cand(noc.PortNorth, 0, 10, 95, 3), // oldest injection
		cand(noc.PortSouth, 1, 30, 80, 1),
	}
	p := NewGlobalAge()
	if got := p.Select(ctx, cands); got != 1 {
		t.Fatalf("GlobalAge picked %d, want 1", got)
	}
}

func TestFIFOPicksEarliestArrival(t *testing.T) {
	ctx, _ := testCtx(t, 2)
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 50, 90, 0),
		cand(noc.PortNorth, 0, 10, 95, 3),
		cand(noc.PortSouth, 1, 30, 80, 1), // earliest local arrival
	}
	p := NewFIFO()
	if got := p.Select(ctx, cands); got != 2 {
		t.Fatalf("FIFO picked %d, want 2", got)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	ctx, _ := testCtx(t, 1)
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 1, 1, 0),
		cand(noc.PortNorth, 0, 2, 2, 0),
		cand(noc.PortSouth, 0, 3, 3, 0),
	}
	p := NewRoundRobin()
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, p.Select(ctx, cands))
	}
	// With a pointer starting at slot 0 and all three always requesting, the
	// grants must cycle through all candidates fairly.
	counts := map[int]int{}
	for _, o := range order {
		counts[o]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] != 2 {
			t.Fatalf("round-robin grants uneven: %v", order)
		}
	}
	// No candidate granted twice in a row.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("round-robin granted %d twice in a row: %v", order[i], order)
		}
	}
}

// TestRoundRobinIsSelectMax proves RoundRobin is the width-1 select-max
// netlist: on a 6-port, 7-VC router, over a seeded sequence of request
// sets from one slot to all 42, BuildSelectMax(42, 1) with each slot's
// request as its priority and the pointer as its start grants the slot
// RoundRobin grants, the pointer following each grant to the next slot.
func TestRoundRobinIsSelectMax(t *testing.T) {
	const vcs = 7
	const slots = noc.MaxPorts * vcs
	ctx, _ := testCtx(t, vcs)
	nl := synth.BuildSelectMax(slots, 1)
	p := NewRoundRobin()
	rng := rand.New(rand.NewSource(7))
	ptr, wraps := 0, 0
	for step := 0; step < 2000; step++ {
		density := rng.Float64()
		reqs := make([]int, slots)
		var cands []noc.Candidate
		for s := range reqs {
			if rng.Float64() < density {
				reqs[s] = 1
				cands = append(cands, cand(noc.PortID(s/vcs), s%vcs, 0, 0, 0))
			}
		}
		if len(cands) == 0 {
			continue
		}
		g := cands[p.Select(ctx, cands)]
		slot := slotIndex(g, vcs)
		if idx, _ := synth.SelectMaxEval(nl, reqs, ptr); idx != slot {
			t.Fatalf("step %d, pointer %d, requests %v: select-max grants %d, round-robin %d", step, ptr, reqs, idx, slot)
		}
		if slot < ptr {
			wraps++
		}
		ptr = (slot + 1) % slots
	}
	if wraps == 0 {
		t.Error("no grant wrapped past the last slot")
	}
}

func TestRoundRobinPerOutputState(t *testing.T) {
	ctx, _ := testCtx(t, 1)
	p := NewRoundRobin()
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 1, 1, 0),
		cand(noc.PortNorth, 0, 2, 2, 0),
	}
	first := p.Select(ctx, cands)
	// A different output port has independent pointer state.
	ctx2 := *ctx
	ctx2.Out = noc.PortSouth
	if got := p.Select(&ctx2, cands); got != first {
		t.Fatalf("fresh output pointer should start at the same slot: %d vs %d", got, first)
	}
}

func TestProbDistFavorsTraveled(t *testing.T) {
	ctx, _ := testCtx(t, 1)
	rng := rand.New(rand.NewSource(11))
	p := NewProbDist(rng)
	// Candidate 1 has 9 hops vs 0: weight 10 vs 1.
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 1, 1, 0),
		cand(noc.PortNorth, 0, 2, 2, 9),
	}
	wins := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if p.Select(ctx, cands) == 1 {
			wins++
		}
	}
	frac := float64(wins) / trials
	if frac < 0.87 || frac > 0.95 {
		t.Fatalf("ProbDist picked the traveled candidate %.3f of the time, want ~10/11", frac)
	}
}

func TestRandomUniform(t *testing.T) {
	ctx, _ := testCtx(t, 1)
	p := NewRandom(rand.New(rand.NewSource(3)))
	cands := []noc.Candidate{
		cand(noc.PortCore, 0, 1, 1, 0),
		cand(noc.PortNorth, 0, 2, 2, 0),
		cand(noc.PortSouth, 0, 3, 3, 0),
	}
	counts := map[int]int{}
	const trials = 9000
	for i := 0; i < trials; i++ {
		counts[p.Select(ctx, cands)]++
	}
	for i := 0; i < 3; i++ {
		frac := float64(counts[i]) / trials
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("Random candidate %d got %.3f of grants, want ~1/3", i, frac)
		}
	}
}

// TestQuickSelectInRange: every policy must return an index within the
// candidate slice for arbitrary candidate sets.
func TestQuickSelectInRange(t *testing.T) {
	ctx, _ := testCtx(t, 3)
	rng := rand.New(rand.NewSource(17))
	policies := []noc.Policy{
		NewRandom(rand.New(rand.NewSource(1))),
		NewRoundRobin(),
		NewFIFO(),
		NewGlobalAge(),
		NewProbDist(rand.New(rand.NewSource(2))),
		NewISLIP(2),
	}
	f := func(n8 uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8)%6 + 2
		cands := make([]noc.Candidate, n)
		ports := []noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast}
		for i := range cands {
			cands[i] = cand(ports[i%len(ports)], r.Intn(3),
				int64(r.Intn(100)), int64(r.Intn(100)), r.Intn(16))
		}
		for _, p := range policies {
			got := p.Select(ctx, cands)
			if got < 0 || got >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestISLIPMatchValid(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 2})
	r := net.RouterAt(1, 1)
	mctx := &noc.MatchContext{Net: net, Router: r, Cycle: 5}
	p := NewISLIP(2)

	reqs := []noc.Request{
		{Out: noc.PortEast, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 1, 1, 2),
			cand(noc.PortCore, 0, 2, 2, 0),
		}},
		{Out: noc.PortSouth, Cands: []noc.Candidate{
			cand(noc.PortWest, 1, 3, 3, 1),
			cand(noc.PortNorth, 0, 4, 4, 2),
		}},
	}
	grants := p.Match(mctx, reqs)
	if len(grants) != len(reqs) {
		t.Fatalf("got %d grants for %d requests", len(grants), len(reqs))
	}
	used := map[noc.PortID]bool{}
	matched := 0
	for i, g := range grants {
		if g < 0 {
			continue
		}
		c := reqs[i].Cands[g]
		if used[c.Port] {
			t.Fatalf("input port %v matched twice", c.Port)
		}
		used[c.Port] = true
		matched++
	}
	// Both outputs can be served by distinct inputs here; with 2 iterations
	// iSLIP must find a maximal matching of size 2.
	if matched != 2 {
		t.Fatalf("iSLIP matched %d pairs, want 2", matched)
	}
}

// TestISLIPMaximalWithIterations: a conflict resolved in iteration 1 frees an
// output that iteration 2 must fill.
func TestISLIPMaximalWithIterations(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 1})
	r := net.RouterAt(1, 1)
	mctx := &noc.MatchContext{Net: net, Router: r, Cycle: 1}

	// Input W requests both outputs; input N requests only East.
	reqs := []noc.Request{
		{Out: noc.PortEast, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 1, 1, 0),
			cand(noc.PortNorth, 0, 2, 2, 0),
		}},
		{Out: noc.PortSouth, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 3, 3, 0),
		}},
	}
	p := NewISLIP(2)
	grants := p.Match(mctx, reqs)
	matched := 0
	for _, g := range grants {
		if g >= 0 {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("2-iteration iSLIP matched %d, want 2 (W->South, N->East)", matched)
	}
	// Specifically W must not take East while starving South.
	if g := grants[1]; g < 0 {
		t.Fatal("South output left unmatched")
	}
}

func TestISLIPDesynchronization(t *testing.T) {
	// Two outputs contending for the same two inputs every cycle: after the
	// first cycle's pointer updates, iSLIP should serve both outputs from
	// different inputs (desynchronized pointers), achieving full matching.
	net, _ := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 1})
	r := net.RouterAt(1, 1)
	mctx := &noc.MatchContext{Net: net, Router: r, Cycle: 1}
	p := NewISLIP(1)
	reqs := []noc.Request{
		{Out: noc.PortEast, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 1, 1, 0), cand(noc.PortNorth, 0, 2, 2, 0)}},
		{Out: noc.PortSouth, Cands: []noc.Candidate{
			cand(noc.PortWest, 0, 3, 3, 0), cand(noc.PortNorth, 0, 4, 4, 0)}},
	}
	total := 0
	for cycle := 0; cycle < 4; cycle++ {
		mctx.Cycle = int64(cycle)
		grants := p.Match(mctx, reqs)
		for _, g := range grants {
			if g >= 0 {
				total++
			}
		}
	}
	// First cycle may match only one pair; afterwards pointers desynchronize
	// and both outputs match every cycle: >= 1 + 2*3 = 7 grants.
	if total < 7 {
		t.Fatalf("iSLIP matched %d pairs over 4 cycles, want >= 7 after desynchronization", total)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []noc.Policy{
		NewRandom(rand.New(rand.NewSource(1))), NewRoundRobin(), NewFIFO(),
		NewGlobalAge(), NewProbDist(rand.New(rand.NewSource(1))), NewISLIP(1),
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"mlnoc/internal/apu"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
	"mlnoc/internal/synth"
	"mlnoc/internal/traffic"
)

// sectionMesh is the Section 3.2 environment: a width x width mesh with 3 VCs
// of single-message buffers under uniform-random traffic at 0.23 per core per
// cycle, its injector seeded seed+1.
func sectionMesh(width int, seed int64) traffic.Mesh {
	return traffic.Mesh{
		Config: noc.Config{Width: width, Height: width, VCs: 3, BufferCap: 1},
		Rate:   0.23,
		Seed:   seed + 1,
	}
}

// apuLoop is the APU environment running the named model in every quadrant.
func apuLoop(model string, opScale float64, seed int64) apu.Loop {
	m, err := synfull.ByName(model)
	if err != nil {
		panic(err)
	}
	return apu.Loop{Models: apu.Homogeneous(m), OpScale: opScale, Seed: seed}
}

func TestFeatureWidths(t *testing.T) {
	if w := AllFeatures.Width(); w != 12 {
		t.Fatalf("AllFeatures.Width() = %d, want 12 (Section 4.3)", w)
	}
	if w := MeshFeatures.Width(); w != 4 {
		t.Fatalf("MeshFeatures.Width() = %d, want 4", w)
	}
	if len(AllFeatures.Labels()) != 12 {
		t.Fatalf("labels = %d, want 12", len(AllFeatures.Labels()))
	}
}

func TestSpecSizes(t *testing.T) {
	apu := APUSpec()
	if apu.InputSize() != 504 {
		t.Fatalf("APU input size = %d, want 504 (Section 4.6)", apu.InputSize())
	}
	if apu.ActionSize() != 42 {
		t.Fatalf("APU action size = %d, want 42", apu.ActionSize())
	}
	mesh := MeshSpec(3)
	if mesh.InputSize() != 60 {
		t.Fatalf("mesh input size = %d, want 60 (Section 3.2)", mesh.InputSize())
	}
	if mesh.ActionSize() != 15 {
		t.Fatalf("mesh action size = %d, want 15", mesh.ActionSize())
	}
}

func TestSlotRoundTrip(t *testing.T) {
	spec := APUSpec()
	seen := map[int]bool{}
	for _, p := range spec.Ports {
		for vc := 0; vc < spec.VCs; vc++ {
			s := spec.Slot(p, vc)
			if s < 0 || s >= spec.ActionSize() {
				t.Fatalf("slot(%v,%d) = %d out of range", p, vc, s)
			}
			if seen[s] {
				t.Fatalf("slot %d assigned twice", s)
			}
			seen[s] = true
		}
	}
}

func TestSlotPanicsOnForeignPort(t *testing.T) {
	spec := MeshSpec(3) // no PortMem
	defer func() {
		if recover() == nil {
			t.Fatal("Slot on foreign port did not panic")
		}
	}()
	spec.Slot(noc.PortMem, 0)
}

func testNetwork(t *testing.T) (*noc.Network, []*noc.Node) {
	t.Helper()
	return noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3})
}

func TestQuickFeatureRange(t *testing.T) {
	net, _ := testNetwork(t)
	norm := DefaultNorm()
	f := func(flits8, hops8, dist8 uint8, arrival, gap int16, typ8, dk8 uint8) bool {
		m := &noc.Message{
			SizeFlits:    int32(flits8%12) + 1,
			ArrivalCycle: 1000 - int64(arrival%1000),
			Distance:     int32(dist8 % 20),
			HopCount:     int32(hops8 % 20),
			ArrivalGap:   int64(gap%2000) + 2000,
			Type:         noc.MsgType(typ8 % 3),
			DstKind:      noc.DstType(dk8 % 3),
		}
		dst := make([]float64, AllFeatures.Width())
		AllFeatures.Extract(dst, &norm, net, 2000, m)
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildStateZeroPadding: slots without candidates stay zero.
func TestBuildStateZeroPadding(t *testing.T) {
	net, _ := testNetwork(t)
	spec := MeshSpec(3)
	cands := []noc.Candidate{
		{Port: noc.PortNorth, VC: 1, Msg: &noc.Message{
			SizeFlits: 1, ArrivalCycle: 5, HopCount: 2, Distance: 3,
		}},
	}
	state := spec.BuildStateInto(make([]float64, spec.InputSize()), net, 10, cands)
	if len(state) != 60 {
		t.Fatalf("state size %d", len(state))
	}
	slot := spec.Slot(noc.PortNorth, 1)
	fw := spec.Features.Width()
	nonzero := 0
	for i, v := range state {
		if v != 0 {
			if i < slot*fw || i >= (slot+1)*fw {
				t.Fatalf("state element %d nonzero outside candidate block [%d,%d)", i, slot*fw, (slot+1)*fw)
			}
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("candidate block entirely zero")
	}
}

// TestBuildStateIsScatterOfSparse: for random candidate sets handed over in
// random (so mostly non-ascending) slot order, BuildSparse emits a strictly
// ascending list without zero-valued entries, and both its scatter and
// BuildStateInto equal the state assembled the way it was before states became
// sparse: every candidate's features extracted straight into its block of a
// zeroed vector. Up to 12 candidates also take BuildStateInto past the
// intermediate list it keeps on the stack.
func TestBuildStateIsScatterOfSparse(t *testing.T) {
	net, _ := testNetwork(t)
	rng := rand.New(rand.NewSource(41))
	for _, spec := range []*StateSpec{MeshSpec(3), APUSpec()} {
		fw := spec.Features.Width()
		var v nn.SparseVec
		got := make([]float64, spec.InputSize())
		for trial := 0; trial < 300; trial++ {
			var cands []noc.Candidate
			for _, slot := range rng.Perm(spec.ActionSize())[:1+rng.Intn(min(12, spec.ActionSize()))] {
				cands = append(cands, noc.Candidate{Port: spec.Ports[slot/spec.VCs], VC: slot % spec.VCs, Msg: &noc.Message{
					SizeFlits:    int32(1 + rng.Intn(8)),
					ArrivalCycle: 100 - int64(rng.Intn(3)*rng.Intn(40)),
					Distance:     int32(rng.Intn(7)),
					HopCount:     int32(rng.Intn(2) * rng.Intn(7)),
					ArrivalGap:   int64(rng.Intn(2) * rng.Intn(70)),
					Type:         noc.MsgType(rng.Intn(3)),
					DstKind:      noc.DstType(rng.Intn(3)),
				}})
			}
			want := make([]float64, spec.InputSize())
			for _, c := range cands {
				slot := spec.Slot(c.Port, c.VC)
				spec.Features.Extract(want[slot*fw:(slot+1)*fw], &spec.Norm, net, 100, c.Msg)
			}

			v = spec.BuildSparse(v, net, 100, cands)
			if !wellFormed(v, spec.InputSize()) {
				t.Fatalf("BuildSparse list %v is not a well-formed vector", v)
			}
			for k, x := range v.Val {
				if x == 0 {
					t.Fatalf("BuildSparse lists a zero at index %d", v.Idx[k])
				}
			}
			for i := range got {
				got[i] = -1 // ScatterInto must clear what a reused vector held
			}
			v.ScatterInto(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scatter of BuildSparse: element %d is %v, want %v (candidates %+v)", i, got[i], want[i], cands)
				}
			}
			for i := range got {
				got[i] = -1
			}
			for i, x := range spec.BuildStateInto(got, net, 100, cands) {
				if x != want[i] {
					t.Fatalf("BuildStateInto: element %d is %v, want %v", i, x, want[i])
				}
			}
		}
	}
}

func TestMeshRulePriority(t *testing.T) {
	p4 := NamedRule("rl-inspired-4x4")
	m := &noc.Message{ArrivalCycle: 0, HopCount: 3}
	// la=10 (<<1 = 20) + hc=3 (<<1 = 6) = 26.
	if got := p4.Priority(10, noc.PortCore, m); got != 26 {
		t.Fatalf("4x4 priority = %d, want 26", got)
	}
	p8 := NamedRule("rl-inspired-8x8")
	// la=10 + hc=3<<2=12 -> 22.
	if got := p8.Priority(10, noc.PortCore, m); got != 22 {
		t.Fatalf("8x8 priority = %d, want 22", got)
	}
	// Local age saturates at 31; 3-bit hop counter saturates at 7 on 4x4.
	old := &noc.Message{ArrivalCycle: 0, HopCount: 100}
	if got := p4.Priority(1000, noc.PortCore, old); got != 31<<1+7<<1 {
		t.Fatalf("saturated 4x4 priority = %d, want %d", got, 31<<1+7<<1)
	}
}

func TestMeshRuleSelectsMaxPriority(t *testing.T) {
	p := NamedRule("rl-inspired-4x4")
	ctx := &noc.ArbContext{Cycle: 100}
	cands := []noc.Candidate{
		{Port: noc.PortCore, Msg: &noc.Message{ArrivalCycle: 95, HopCount: 0}},  // pri 10
		{Port: noc.PortWest, Msg: &noc.Message{ArrivalCycle: 80, HopCount: 2}},  // pri 44
		{Port: noc.PortNorth, Msg: &noc.Message{ArrivalCycle: 90, HopCount: 1}}, // pri 22
	}
	if got := p.Select(ctx, cands); got != 1 {
		t.Fatalf("Select = %d, want 1", got)
	}
}

func TestAlgorithm2StarvationOverride(t *testing.T) {
	p := NamedRule("rl-inspired")
	// Local age 25 (> 24): priority equals the local age, regardless of hops
	// or class.
	m := &noc.Message{ArrivalCycle: 0, HopCount: 15, Type: noc.TypeCoherence}
	if got := p.Priority(25, noc.PortWest, m); got != 25 {
		t.Fatalf("override priority = %d, want 25", got)
	}
	// Saturates at 31.
	if got := p.Priority(500, noc.PortWest, m); got != 31 {
		t.Fatalf("saturated override = %d, want 31", got)
	}
	// At exactly the threshold the normal path applies.
	m2 := &noc.Message{ArrivalCycle: 0, HopCount: 2, Type: noc.TypeRequest}
	if got := p.Priority(24, noc.PortCore, m2); got != 2 {
		t.Fatalf("threshold-edge priority = %d, want 2", got)
	}
}

func TestAlgorithm2PortAsymmetry(t *testing.T) {
	m := &noc.Message{ArrivalCycle: 95, HopCount: 3, Type: noc.TypeRequest}
	now := int64(100)

	paper := NamedRule("rl-inspired-paper-we") // inverts W/E
	if got := paper.Priority(now, noc.PortCore, m); got != 3 {
		t.Fatalf("paper core priority = %d, want 3", got)
	}
	if got := paper.Priority(now, noc.PortWest, m); got != 12 { // 15-3
		t.Fatalf("paper west priority = %d, want 12", got)
	}
	if got := paper.Priority(now, noc.PortNorth, m); got != 3 {
		t.Fatalf("paper north priority = %d, want 3", got)
	}

	ours := NamedRule("rl-inspired") // inverts N/S
	if got := ours.Priority(now, noc.PortWest, m); got != 3 {
		t.Fatalf("ours west priority = %d, want 3", got)
	}
	if got := ours.Priority(now, noc.PortNorth, m); got != 12 {
		t.Fatalf("ours north priority = %d, want 12", got)
	}
}

func TestAlgorithm2ClassBoost(t *testing.T) {
	p := NamedRule("rl-inspired-paper-we")
	now := int64(100)
	req := &noc.Message{ArrivalCycle: 95, HopCount: 3, Type: noc.TypeRequest}
	resp := &noc.Message{ArrivalCycle: 95, HopCount: 3, Type: noc.TypeResponse}
	coh := &noc.Message{ArrivalCycle: 95, HopCount: 3, Type: noc.TypeCoherence}
	if p.Priority(now, noc.PortCore, resp) != 6 || p.Priority(now, noc.PortCore, coh) != 6 {
		t.Fatal("response/coherence boost missing")
	}
	if p.Priority(now, noc.PortCore, req) != 3 {
		t.Fatal("request should not be boosted")
	}
	deboost := NamedRule("rl-inspired(-msgtype)")
	if deboost.Priority(now, noc.PortCore, resp) != 3 {
		t.Fatal("de-featured msgtype still boosts")
	}
}

// TestAlgorithm2PriorityFits5Bits: the paper's Fig. 8 datapath is 5 bits
// wide; every reachable priority must fit.
func TestAlgorithm2PriorityFits5Bits(t *testing.T) {
	var variants []*RulePolicy
	for _, name := range []string{"rl-inspired", "rl-inspired-paper-we", "rl-inspired(-port)",
		"rl-inspired(-msgtype)", "rl-inspired(and-threshold)"} {
		variants = append(variants, NamedRule(name))
	}
	f := func(la8, hc8, typ8, port8 uint8) bool {
		la := int64(la8) % 200
		m := &noc.Message{
			ArrivalCycle: 1000 - la,
			HopCount:     int32(hc8 % 30),
			Type:         noc.MsgType(typ8 % 3),
		}
		port := noc.PortID(port8 % noc.MaxPorts)
		for _, v := range variants {
			pri := v.Priority(1000, port, m)
			if pri < 0 || pri > 31 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm2StarvationWins: once a message crosses the starvation
// threshold with a saturated counter it beats any non-starved candidate.
func TestAlgorithm2StarvationWins(t *testing.T) {
	p := NamedRule("rl-inspired")
	ctx := &noc.ArbContext{Cycle: 1000}
	starved := noc.Candidate{Port: noc.PortCore, Msg: &noc.Message{
		ArrivalCycle: 0, HopCount: 0, Type: noc.TypeRequest, // la saturates at 31
	}}
	fresh := noc.Candidate{Port: noc.PortWest, Msg: &noc.Message{
		ArrivalCycle: 999, HopCount: 15, Type: noc.TypeCoherence, // max boosted: 30
	}}
	if got := p.Select(ctx, []noc.Candidate{fresh, starved}); got != 1 {
		t.Fatalf("saturated starved message lost arbitration (got %d)", got)
	}
}

// TestRulesMatchTheirPBlocks is the one proof for every distilled arbiter:
// each named rule's priority, as the simulator computes it from a message,
// equals its Fig. 8 P-block netlist's on every input the P-block encodes —
// local age 0-31, hop count 0-15 (saturated to the rule's field), port 0-5
// and class 0-2. It also pins the netlists' cost and the paper's AND-gate
// threshold, which differs from the exact one only at LA = 24.
func TestRulesMatchTheirPBlocks(t *testing.T) {
	const now = 100
	exact, approxDiffs := NamedRule("rl-inspired"), 0
	for _, p := range Rules {
		r := p.Rule()
		nl := synth.BuildPBlock(r)
		for la := 0; la < 32; la++ {
			for hc := 0; hc < 16; hc++ {
				for port := 0; port < noc.MaxPorts; port++ {
					for class := 0; class < 3; class++ {
						m := &noc.Message{ArrivalCycle: now - int64(la), HopCount: int32(hc), Type: noc.MsgType(class)}
						want := p.Priority(now, noc.PortID(port), m)
						if got := synth.PBlockPriority(nl, r, la, hc, port, class); got != want {
							t.Fatalf("%s: P-block(la=%d hc=%d port=%d class=%d) = %d, want %d",
								p.Name(), la, hc, port, class, got, want)
						}
						if p.Name() != "rl-inspired(and-threshold)" {
							continue
						}
						if e := exact.Priority(now, noc.PortID(port), m); want != e {
							if la != 24 || want != 24 {
								t.Fatalf("AND-gate threshold gives %d at la=%d hc=%d, the exact one %d", want, la, hc, e)
							}
							approxDiffs++
						}
					}
				}
			}
		}
	}
	if approxDiffs == 0 {
		t.Error("the AND-gate threshold never differed from the exact one")
	}
	for _, c := range []struct {
		name         string
		gates, depth int
	}{
		{"rl-inspired", 48, 6},
		{"rl-inspired(and-threshold)", 45, 5},
	} {
		nl := synth.BuildPBlock(NamedRule(c.name).Rule())
		if nl.NumGates() != c.gates || nl.Depth() != c.depth {
			t.Errorf("%s: P-block of %d gates at depth %d, want %d at depth %d",
				c.name, nl.NumGates(), nl.Depth(), c.gates, c.depth)
		}
	}
}

// TestRulesMatchTheirSelectMax is the proof of the whole Fig. 8 arbiter:
// for every named rule, candidates' priorities computed by the rule's
// P-block netlist and reduced by a 42-way select-max netlist as wide as the
// rule's priorities grant the candidate RulePolicy.Select picks, for 1 to
// 42 candidates at several cycles, so at many scan starts. The local ages
// and hop counts come from short lists, many saturated, so equal priorities
// are common and the rotating tie-break decides most grants. Candidates past
// the count read priority 0, which never beats the one at start.
//
// It also pins the cost of the 5-bit tree Algorithm 2 needs: 41 nodes of 90
// gates (a 6-bit ripple comparator of 42 gates and 12 bits of 2:1 mux, the
// key and the index, of 4 gates each) over 213 gates testing k >= start, at
// depth 73.
func TestRulesMatchTheirSelectMax(t *testing.T) {
	const slots = noc.MaxPorts * 7
	if nl := synth.BuildSelectMax(slots, 5); nl.NumGates() != 41*90+213 || nl.Depth() != 73 {
		t.Errorf("42-way 5-bit select-max: %d gates at depth %d, want %d at depth 73", nl.NumGates(), nl.Depth(), 41*90+213)
	}
	ages := []int64{0, 3, 24, 25, 31, 40}
	hops := []int{0, 2, 5, 15, 20}
	rng := rand.New(rand.NewSource(53))
	cases, rotated := 0, 0
	for _, p := range Rules {
		r := p.Rule()
		pblock, top := synth.BuildPBlock(r), 0
		for port := 0; port < noc.MaxPorts; port++ {
			for class := 0; class < 3; class++ {
				top = max(top, r.Priority(31, 15, port, class))
			}
		}
		nl := synth.BuildSelectMax(slots, bits.Len(uint(top)))
		for n := 1; n <= slots; n++ {
			for _, now := range []int64{100, 101, 102, 103, 104, 105, 1007, 12345} {
				cands := make([]noc.Candidate, n)
				pris := make([]int, n)
				for k := range cands {
					la, hc := ages[rng.Intn(len(ages))], hops[rng.Intn(len(hops))]
					port, class := rng.Intn(noc.MaxPorts), rng.Intn(3)
					m := &noc.Message{ArrivalCycle: now - la, HopCount: int32(hc), Type: noc.MsgType(class)}
					cands[k] = noc.Candidate{Port: noc.PortID(port), Msg: m}
					pris[k] = synth.PBlockPriority(pblock, r, hwLocalAge(now, m), hc, port, class)
				}
				want := p.Select(&noc.ArbContext{Cycle: now}, cands)
				idx, got := synth.SelectMaxEval(nl, pris, int(now%int64(n)))
				if idx != want || got != pris[want] {
					t.Fatalf("%s, %d candidates at cycle %d: select-max grants %d (priority %d), the policy %d (priority %d); priorities %v",
						p.Name(), n, now, idx, got, want, pris[want], pris)
				}
				cases++
				if slices.Index(pris, pris[want]) != want {
					rotated++
				}
			}
		}
	}
	if rotated < cases/4 {
		t.Errorf("the rotating tie-break decided only %d of %d grants", rotated, cases)
	}
	t.Logf("%d arbitrations, %d decided by the rotating tie-break, 0 mismatches", cases, rotated)
}

func TestNaiveLatencyArbiterPicksNewest(t *testing.T) {
	p := NaiveLatencyArbiter{}
	ctx := &noc.ArbContext{Cycle: 100}
	cands := []noc.Candidate{
		{Msg: &noc.Message{ArrivalCycle: 10}},
		{Msg: &noc.Message{ArrivalCycle: 90}},
		{Msg: &noc.Message{ArrivalCycle: 50}},
	}
	if got := p.Select(ctx, cands); got != 1 {
		t.Fatalf("naive arbiter picked %d, want newest (1)", got)
	}
}

func TestHeatmapShape(t *testing.T) {
	spec := MeshSpec(3)
	agent := NewAgent(spec, AgentConfig{Hidden: 15, Seed: 1})
	h := NewHeatmap(spec, agent.Net())
	if len(h.Abs) != 4 || len(h.Abs[0]) != 15 {
		t.Fatalf("heatmap shape %dx%d, want 4x15", len(h.Abs), len(h.Abs[0]))
	}
	if len(h.RowLabels) != 4 || len(h.ColLabels) != 15 {
		t.Fatalf("labels %d/%d", len(h.RowLabels), len(h.ColLabels))
	}
	ranked := h.RankedRows()
	if len(ranked) != 4 {
		t.Fatalf("ranked rows = %v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		if h.RowMean(ranked[i-1]) < h.RowMean(ranked[i]) {
			t.Fatal("RankedRows not sorted descending")
		}
	}
}

func TestHeatmapPortSignedMean(t *testing.T) {
	spec := MeshSpec(1)
	agent := NewAgent(spec, AgentConfig{Hidden: 4, Seed: 2})
	// Force the first-layer weights of the west column's hop-count input.
	l := agent.Net().Layers[0]
	fw := spec.Features.Width()
	westSlot := spec.Slot(noc.PortWest, 0)
	hopIdx := westSlot*fw + 3 // hop count is feature 3 of MeshFeatures
	for j := 0; j < l.Out; j++ {
		l.W[j*l.In+hopIdx] = -2
	}
	h := NewHeatmap(spec, agent.Net())
	if got := h.PortSignedMean(3, "west"); got != -2 {
		t.Fatalf("west hop signed mean = %v, want -2", got)
	}
}

// TestAgentLearnsOldestPreference runs a short training and checks the agent
// beats random chance at selecting the oldest message — the sanity property
// behind the Fig. 4/5 results.
func TestAgentLearnsOldestPreference(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	mesh := sectionMesh(4, 3)
	tr, err := Train(context.Background(), TrainSpec{Env: mesh, Epochs: 20, EpochCycles: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Agent.Freeze()

	// Shadow-evaluate: fraction of decisions picking the oldest candidate.
	hits, total := 0, 0
	probe := policyFunc(func(ctx *noc.ArbContext, cands []noc.Candidate) int {
		choice := tr.Agent.Select(ctx, cands)
		oldest := 0
		for i, c := range cands {
			if c.Msg.InjectCycle < cands[oldest].Msg.InjectCycle {
				oldest = i
			}
		}
		total++
		if cands[choice].Msg.InjectCycle == cands[oldest].Msg.InjectCycle {
			hits++
		}
		return choice
	})
	mesh.Evaluate(probe, 500, 3000)
	if total == 0 {
		t.Fatal("no contended arbitrations during evaluation")
	}
	acc := float64(hits) / float64(total)
	if acc < 0.55 {
		t.Fatalf("trained agent oldest-pick accuracy %.2f; want > 0.55 (random is ~0.5)", acc)
	}
}

// policyFunc adapts a function to noc.Policy.
type policyFunc func(*noc.ArbContext, []noc.Candidate) int

func (policyFunc) Name() string { return "func" }
func (f policyFunc) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	return f(ctx, cands)
}

func TestAgentEpsilonSchedule(t *testing.T) {
	spec := MeshSpec(3)
	a := NewAgent(spec, AgentConfig{
		Hidden: 8, Seed: 1,
		EpsStart: 0.5, EpsDecayCycles: 100,
		DQL: rl.DQLConfig{Epsilon: 0.01},
	})
	if got := a.Epsilon(); got != 0.5 {
		t.Fatalf("initial epsilon = %v, want 0.5", got)
	}
	a.cyclesSeen = 50
	mid := a.Epsilon()
	if mid <= 0.01 || mid >= 0.5 {
		t.Fatalf("mid epsilon = %v, want in (0.01, 0.5)", mid)
	}
	a.cyclesSeen = 1000
	if got := a.Epsilon(); got != 0.01 {
		t.Fatalf("floor epsilon = %v, want 0.01", got)
	}
}

func TestAgentExperienceWiring(t *testing.T) {
	net, _ := testNetwork(t)
	spec := MeshSpec(3)
	a := NewAgent(spec, AgentConfig{Hidden: 8, Seed: 1})
	ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(1, 1), Out: noc.PortEast, Cycle: 50}
	cands := []noc.Candidate{
		{Port: noc.PortCore, VC: 0, Msg: &noc.Message{SizeFlits: 1, InjectCycle: 1, ArrivalCycle: 40}},
		{Port: noc.PortWest, VC: 1, Msg: &noc.Message{SizeFlits: 1, InjectCycle: 5, ArrivalCycle: 45}},
	}
	if n := a.DQL.Replay.Len(); n != 0 {
		t.Fatalf("replay pre-populated: %d", n)
	}
	a.Select(ctx, cands)
	// First decision at a site leaves a pending experience, nothing observed.
	if n := a.DQL.Replay.Len(); n != 0 {
		t.Fatalf("replay after first decision = %d, want 0", n)
	}
	ctx.Cycle = 51
	a.Select(ctx, cands)
	if n := a.DQL.Replay.Len(); n != 1 {
		t.Fatalf("replay after second decision = %d, want 1", n)
	}
	a.FlushPending()
	if n := a.DQL.Replay.Len(); n != 2 {
		t.Fatalf("replay after flush = %d, want 2", n)
	}
}

// TestFreezeFlushesInSiteOrder: Freeze records the decisions still waiting for
// a successor as terminal experiences in ascending site order, so the replay
// memory it leaves is the same on every run. Each site's one decision grants
// the only candidate, from a slot no other site uses, so the actions name the
// sites.
func TestFreezeFlushesInSiteOrder(t *testing.T) {
	net, _ := testNetwork(t)
	spec := MeshSpec(3)
	type site struct {
		x, y      int
		out, port noc.PortID
		vc        int
	}
	// Visited in an order that is not the sites' order.
	sites := []site{
		{2, 3, noc.PortWest, noc.PortNorth, 1}, {0, 0, noc.PortEast, noc.PortCore, 0},
		{3, 1, noc.PortNorth, noc.PortSouth, 2}, {1, 1, noc.PortEast, noc.PortWest, 1},
		{1, 1, noc.PortNorth, noc.PortEast, 0}, {0, 2, noc.PortSouth, noc.PortCore, 2},
	}
	for trial := 0; trial < 4; trial++ {
		a := NewAgent(spec, AgentConfig{Hidden: 8, Seed: int64(trial)})
		want := map[int64]int{}
		for _, s := range sites {
			ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(s.x, s.y), Out: s.out, Cycle: 10}
			cands := []noc.Candidate{{Port: s.port, VC: s.vc, Msg: &noc.Message{SizeFlits: 1, InjectCycle: 1, ArrivalCycle: 5}}}
			a.Select(ctx, cands)
			want[siteKey(ctx)] = spec.Slot(s.port, s.vc)
		}
		a.Freeze()
		if a.DQL.Replay.Len() != len(sites) {
			t.Fatalf("replay holds %d experiences after Freeze, want %d", a.DQL.Replay.Len(), len(sites))
		}
		for i, key := range sortedSites(want) {
			if e := a.DQL.Replay.At(i); !e.Terminal || e.Action != want[key] {
				t.Fatalf("trial %d: experience %d is action %d (terminal %t), want site %d's action %d",
					trial, i, e.Action, e.Terminal, key, want[key])
			}
		}
	}
}

func TestFreezeStopsLearning(t *testing.T) {
	net, _ := testNetwork(t)
	spec := MeshSpec(3)
	a := NewAgent(spec, AgentConfig{Hidden: 8, Seed: 1})
	a.Freeze()
	if a.Training {
		t.Fatal("Freeze left Training true")
	}
	ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(0, 0), Out: noc.PortEast, Cycle: 9}
	cands := []noc.Candidate{
		{Port: noc.PortCore, VC: 0, Msg: &noc.Message{SizeFlits: 1}},
		{Port: noc.PortSouth, VC: 0, Msg: &noc.Message{SizeFlits: 1}},
	}
	a.Select(ctx, cands)
	a.Select(ctx, cands)
	if a.DQL.Replay.Len() != 0 {
		t.Fatal("frozen agent recorded experiences")
	}
	if a.DQL.Steps() != 0 {
		t.Fatal("frozen agent trained")
	}
}

func TestHillClimbFindsLocalAge(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	hc := HillClimb(TrainSpec{Env: sectionMesh(4, 5), Epochs: 4, EpochCycles: 600, Seed: 5}, nil, 2)
	if len(hc.Steps) == 0 {
		t.Fatal("hill climbing made no steps")
	}
	// Round one must have tried all four mesh features.
	if len(hc.Steps[0].Tried) != 4 {
		t.Fatalf("round one tried %d features, want 4", len(hc.Steps[0].Tried))
	}
	if len(hc.Best) == 0 || hc.BestLatency <= 0 {
		t.Fatalf("bad result: %+v", hc)
	}
}

// TestTrainCancels: on either environment, Train cancelled mid-run returns
// ctx.Err() and the agent trained so far, at most one poll period after the
// cancellation.
func TestTrainCancels(t *testing.T) {
	for _, c := range []struct {
		name string
		spec TrainSpec
	}{
		{"mesh", TrainSpec{Env: sectionMesh(4, 2), Seed: 2}},
		{"apu", TrainSpec{Env: apuLoop("bfs", 0.05, 2), Features: AllFeatures, Seed: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := c.spec
			s.Epochs, s.EpochCycles = 4, 1000
			s.OnEpoch = func(int, float64) { cancel() }
			res, err := Train(ctx, s)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v, want %v", err, context.Canceled)
			}
			if res == nil || res.Agent == nil || res.Agent.DQL.Steps() == 0 {
				t.Fatal("cancelled training returned no trained agent")
			}
			if len(res.Curve) != 1 {
				t.Fatalf("%d epochs reported, want the 1 before cancellation", len(res.Curve))
			}
			if late := res.Agent.cyclesSeen - s.EpochCycles; late < 0 || late > trainCheckEvery {
				t.Fatalf("stopped %d cycles after cancellation, want at most %d", late, trainCheckEvery)
			}
		})
	}
}

func TestTrainResultFinalLatency(t *testing.T) {
	r := &TrainResult{Curve: []float64{100, 80, 60, 40, 20, 10, 10, 10}}
	if got := r.FinalLatency(); got != 10 {
		t.Fatalf("FinalLatency = %v, want 10 (mean of last quarter)", got)
	}
	empty := &TrainResult{}
	if empty.FinalLatency() != 0 {
		t.Fatal("empty curve FinalLatency != 0")
	}
}

func TestSelectMaxRotatingTieBreak(t *testing.T) {
	cands := []noc.Candidate{
		{Msg: &noc.Message{HopCount: 5}},
		{Msg: &noc.Message{HopCount: 5}},
		{Msg: &noc.Message{HopCount: 4}},
	}
	pri := func(c noc.Candidate) int { return int(c.Msg.HopCount) }
	// At cycle 0 the scan starts at 0: the first tied max wins.
	if got := selectMax(0, cands, pri); got != 0 {
		t.Fatalf("cycle 0 tie-break = %d, want 0", got)
	}
	// At cycle 1 the scan starts at 1: the other tied max wins.
	if got := selectMax(1, cands, pri); got != 1 {
		t.Fatalf("cycle 1 tie-break = %d, want 1", got)
	}
	// The lower-priority candidate never wins.
	for now := int64(0); now < 9; now++ {
		if got := selectMax(now, cands, pri); got == 2 {
			t.Fatal("lower-priority candidate won a tie-break")
		}
	}
}

// eagerEvalAgent is NewAgentWithNet as it was before evaluation agents stopped
// carrying training state: target network and replay memory built up front.
func eagerEvalAgent(spec *StateSpec, net *nn.MLP, seed int64) *Agent {
	a := NewAgentWithNet(spec, net, seed)
	a.DQL = rl.NewDQL(net, rl.DQLConfig{})
	a.DQL.Replay.Codec = a.Spec
	return a
}

// TestEvalAgentCarriesNoTrainingState pins that an evaluation-only agent is
// built without target network and replay ring, that this changes nothing it
// does — a frozen episode, and training it after all, match an agent that had
// both from the start bit for bit — and that Freeze keeps a trained agent's.
func TestEvalAgentCarriesNoTrainingState(t *testing.T) {
	spec := MeshSpec(3)
	weights := nn.New([]int{spec.InputSize(), 15, spec.ActionSize()},
		[]nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rand.New(rand.NewSource(3)))
	mesh := sectionMesh(4, 5)
	lazy := NewAgentWithNet(spec, weights.Clone(), 9)
	eager := eagerEvalAgent(spec, weights.Clone(), 9)

	// Built for APU scale, network aside, the agent is small: the ring and the
	// target it no longer carries were ~540 KB.
	apu := APUSpec()
	apuNet := nn.New([]int{apu.InputSize(), 42, apu.ActionSize()},
		[]nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rand.New(rand.NewSource(4)))
	// The input-major store of layer 0 (~180 KB where nn has its kernels) is
	// the network's: no agent over it builds or refreshes anything.
	for _, which := range []string{"first", "second"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewAgentWithNet(apu, apuNet, 1)
		runtime.ReadMemStats(&after)
		if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb > 32 {
			t.Errorf("the %s NewAgentWithNet over a network allocated %d KB, want under 32", which, kb)
		}
	}

	frozen := func(a *Agent) traffic.RunResult { return mesh.Evaluate(a, 200, 1500) }
	if got, want := frozen(lazy), frozen(eager); got != want {
		t.Fatalf("frozen episode: %+v, with training state up front %+v", got, want)
	}
	if lazy.Decisions() == 0 || lazy.Decisions() != eager.Decisions() {
		t.Fatalf("decisions %d vs %d", lazy.Decisions(), eager.Decisions())
	}
	if lazy.DQL.Target != nil || lazy.DQL.Replay.Len() != 0 {
		t.Fatal("a frozen episode grew training state")
	}

	// Switched to training, the agent grows what it needs and learns exactly
	// what its twin learns; frozen again, both still decide alike.
	for _, a := range []*Agent{lazy, eager} {
		a.Training = true
		mesh.Evaluate(a, 0, 1500)
		a.Freeze()
	}
	if lazy.DQL.Steps() == 0 || lazy.DQL.Steps() != eager.DQL.Steps() {
		t.Fatalf("training steps %d vs %d", lazy.DQL.Steps(), eager.DQL.Steps())
	}
	for l, layer := range lazy.Net().Layers {
		for i, w := range layer.W {
			if w != eager.Net().Layers[l].W[i] {
				t.Fatalf("layer %d weight %d: %v vs %v", l, i, w, eager.Net().Layers[l].W[i])
			}
		}
	}
	steps, held := lazy.DQL.Steps(), lazy.DQL.Replay.Len()
	if got, want := frozen(lazy), frozen(eager); got != want {
		t.Fatalf("trained-then-frozen episode: %+v vs %+v", got, want)
	}
	if lazy.DQL.Target == nil || lazy.DQL.Steps() != steps || lazy.DQL.Replay.Len() != held || held == 0 {
		t.Fatal("Freeze did not leave the trained agent's learner as it was")
	}
}

// TestNetShowsTrainedWeights: nn keeps the first layer of a network somewhere
// else while it is trained (nn.MLP, "Layer 0 storage"), and Net is the door
// through which everything outside nn reads weights. After training, with no
// other call in between, the weights Net shows must be the ones the network
// computes with: a forward pass spelled out here from Net().Layers gives the
// network's own Q-values bit for bit, and the first layer has moved.
func TestNetShowsTrainedWeights(t *testing.T) {
	spec := MeshSpec(3)
	a := NewAgent(spec, AgentConfig{Hidden: 15, Seed: 4})
	initial := a.Net().Clone()
	a.Training = true
	sectionMesh(4, 6).Evaluate(a, 0, 1500)
	if a.DQL.Steps() == 0 {
		t.Fatal("the episode trained nothing")
	}
	net := a.Net()
	moved := false
	for i, w := range net.Layers[0].W {
		moved = moved || w != initial.Layers[0].W[i]
	}
	if !moved {
		t.Fatal("Net().Layers[0].W is still the untrained first layer")
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, spec.InputSize())
		for i := range x {
			if rng.Intn(5) == 0 {
				x[i] = rng.Float64()
			}
		}
		in := x
		for _, l := range net.Layers {
			out := make([]float64, l.Out)
			for j := range out {
				z := l.B[j]
				for i, v := range in {
					if v != 0 {
						z += l.W[j*l.In+i] * v
					}
				}
				switch l.Act {
				case nn.Sigmoid:
					z = 1 / (1 + math.Exp(-z))
				case nn.LeakyReLU:
					if z < 0 {
						z *= 0.01
					}
				}
				out[j] = z
			}
			in = out
		}
		for j, q := range net.Forward(x) {
			if math.Float64bits(q) != math.Float64bits(in[j]) {
				t.Fatalf("trial %d: Q[%d] = %v, from the weights Net shows %v", trial, j, q, in[j])
			}
		}
	}
}

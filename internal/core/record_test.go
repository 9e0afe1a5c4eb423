package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
)

// Extract writes the normalized feature values of message m into dst (which
// must have length fs.Width()) and returns dst. The message must currently
// reside in an input buffer of a router in net. It is the reference the
// states Record and Expand build are held to: feature by feature, straight
// from the message.
func (fs FeatureSet) Extract(dst []float64, norm *NormConfig, net *noc.Network, now int64, m *noc.Message) []float64 {
	i := 0
	for _, f := range fs {
		r := f.read(net, now, m)
		if f.Width() == 3 {
			dst[i], dst[i+1], dst[i+2] = 0, 0, 0
			dst[i+int(r)] = 1
			i += 3
			continue
		}
		dst[i] = norm.scale(f, r)
		i++
	}
	return dst
}

func TestFeatureExtraction(t *testing.T) {
	net, _ := testNetwork(t)
	norm := DefaultNorm()
	m := &noc.Message{
		SizeFlits:    5,
		InjectCycle:  10,
		ArrivalCycle: 80,
		Distance:     6,
		HopCount:     3,
		ArrivalGap:   7,
		Type:         noc.TypeCoherence,
		DstKind:      noc.DstMemory,
	}
	dst := make([]float64, AllFeatures.Width())
	AllFeatures.Extract(dst, &norm, net, 100, m)

	if dst[0] != 5.0/8 {
		t.Errorf("payload = %v, want %v", dst[0], 5.0/8)
	}
	// Soft local-age normalization: la/(la+cap/2) with la=20.
	wantLA := 20.0 / (20.0 + norm.LocalAgeCap/2)
	if dst[1] != wantLA {
		t.Errorf("local age = %v, want %v", dst[1], wantLA)
	}
	if dst[2] != 6.0/15 {
		t.Errorf("distance = %v, want %v", dst[2], 6.0/15)
	}
	if dst[3] != 3.0/15 {
		t.Errorf("hop count = %v, want %v", dst[3], 3.0/15)
	}
	if dst[4] != 0 {
		t.Errorf("in-flight = %v, want 0", dst[4])
	}
	if dst[5] != 7.0/63 {
		t.Errorf("inter-arrival = %v, want %v", dst[5], 7.0/63)
	}
	// One-hot message type: coherence.
	if dst[6] != 0 || dst[7] != 0 || dst[8] != 1 {
		t.Errorf("msg type one-hot = %v", dst[6:9])
	}
	// One-hot destination type: memory.
	if dst[9] != 0 || dst[10] != 0 || dst[11] != 1 {
		t.Errorf("dst type one-hot = %v", dst[9:12])
	}
}

// referenceBuildSparse is how states were built before arbitrations were
// recorded: candidates sorted by slot (the first of a repeated slot kept),
// each one's features extracted straight into its block, zeros closed up.
// Record followed by Expand must give the same list, bit for bit.
func referenceBuildSparse(s *StateSpec, net *noc.Network, now int64, cands []noc.Candidate) nn.SparseVec {
	fw := s.Features.Width()
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		key := s.Slot(c.Port, c.VC)<<16 | i
		j := len(order)
		order = append(order, key)
		for ; j > 0 && order[j-1] > key; j-- {
			order[j] = order[j-1]
		}
		order[j] = key
	}
	var v nn.SparseVec
	block := make([]float64, fw)
	last := -1
	for _, key := range order {
		slot := key >> 16
		if slot == last {
			continue
		}
		last = slot
		s.Features.Extract(block, &s.Norm, net, now, cands[key&0xffff].Msg)
		for k, x := range block {
			if x != 0 {
				v.Idx = append(v.Idx, int32(slot*fw+k))
				v.Val = append(v.Val, x)
			}
		}
	}
	return v
}

// wellFormed reports whether v is a vector of n elements the network takes:
// as many values as indices, indices strictly ascending within [0, n),
// values finite.
func wellFormed(v nn.SparseVec, n int) bool {
	if len(v.Idx) != len(v.Val) {
		return false
	}
	for k, i := range v.Idx {
		if i < 0 || int(i) >= n || k > 0 && i <= v.Idx[k-1] || math.IsNaN(v.Val[k]) || math.IsInf(v.Val[k], 0) {
			return false
		}
	}
	return true
}

// busyNetwork returns a mesh whose core 0 has 51 messages outstanding, past
// the in-flight cap of 32, and core 1 has 11; every other core has none.
func busyNetwork() (*noc.Network, []*noc.Node) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 64})
	net.SetPolicy(arb.NewRoundRobin())
	for i := 0; i < 120; i++ {
		cores[0].Inject(&noc.Message{Dst: cores[15].ID, SizeFlits: 8, Class: noc.Class(i % 3)})
	}
	for i := 0; i < 11; i++ {
		cores[1].Inject(&noc.Message{Dst: cores[14].ID, SizeFlits: 8, Class: noc.Class(i % 3)})
	}
	for c := 0; c < 50; c++ {
		net.Step()
	}
	return net, cores
}

// recordSpecs are the specs states are recorded for: the mesh and APU agents,
// an APU agent for each single feature of Fig. 13, a three-feature set of the
// kind HillClimb builds, and an APU spec whose caps were changed after it was
// built, which Expand must follow without its value table.
func recordSpecs() []*StateSpec {
	specs := []*StateSpec{MeshSpec(3), APUSpec()}
	apu := APUSpec()
	for _, f := range AllFeatures {
		specs = append(specs, NewStateSpec(apu.Ports, apu.VCs, FeatureSet{f}, DefaultNorm()))
	}
	changed := APUSpec()
	changed.Norm.LocalAgeCap, changed.Norm.GapCap = 20, 7
	return append(specs, NewStateSpec(apu.Ports, apu.VCs, FeatureSet{FeatHopCount, FeatLocalAge, FeatInflight}, DefaultNorm()), changed)
}

// recordNow is the cycle candidates are recorded at: late enough for local
// ages of 2^62.
const recordNow = int64(1) << 62

// candidate returns a candidate at slot with the given readings, as the
// fuzz target and the random trials both draw them.
func candidate(s *StateSpec, slot int, src noc.NodeID, flits int, age int64, dist, hops int, gap int64, typ, dst uint8) noc.Candidate {
	return noc.Candidate{Port: s.Ports[slot/s.VCs], VC: slot % s.VCs, Msg: &noc.Message{
		Src:          src,
		SizeFlits:    int32(flits),
		ArrivalCycle: recordNow - age,
		Distance:     int32(dist),
		HopCount:     int32(hops),
		ArrivalGap:   gap,
		Type:         noc.MsgType(typ % 3),
		DstKind:      noc.DstType(dst % 3),
	}}
}

// randomCands draws 1 to 20 candidates of s, in random slot order with a slot
// now and then repeated, whose readings reach past every cap: local ages up to
// 2^62, gaps of zero and of 2^33, in-flight counts of 0, 11 and 51.
func randomCands(rng *rand.Rand, s *StateSpec, cores []*noc.Node) []noc.Candidate {
	pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
	var cands []noc.Candidate
	for n := 1 + rng.Intn(20); len(cands) < n; {
		slot := rng.Intn(s.ActionSize())
		if len(cands) > 0 && rng.Intn(8) == 0 {
			c := cands[rng.Intn(len(cands))]
			slot = s.Slot(c.Port, c.VC)
		}
		cands = append(cands, candidate(s, slot, cores[rng.Intn(3)].ID,
			1+rng.Intn(20),
			pick(0, 1, int64(rng.Intn(200)), 63, 64, 1<<32, 1<<32+7, 1<<40, 1<<62),
			rng.Intn(40), rng.Intn(40),
			pick(0, 0, int64(rng.Intn(100)), 63, 64, 1e6, 1<<33),
			uint8(rng.Intn(3)), uint8(rng.Intn(3))))
	}
	return cands
}

// requireRecordMatchesExtract holds Expand(Record(cands)) to the reference
// state, bit for bit, and its valid list to the candidates' slots in the
// order given, and BuildSparse and BuildStateInto to the same state.
func requireRecordMatchesExtract(t *testing.T, s *StateSpec, net *noc.Network, cands []noc.Candidate) {
	t.Helper()
	want := referenceBuildSparse(s, net, recordNow, cands)
	var slots []int
	for _, c := range cands {
		slots = append(slots, s.Slot(c.Port, c.VC))
	}
	rec := s.Record(nil, net, recordNow, cands)
	got, valid := s.Expand(nn.SparseVec{}, nil, rec)
	same := func(v nn.SparseVec) bool {
		return slices.Equal(v.Idx, want.Idx) && slices.EqualFunc(v.Val, want.Val, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	}
	if !same(got) {
		t.Fatalf("%v: Expand(Record) = %v, reference %v", s.Features, got, want)
	}
	if !slices.Equal(valid, slots) {
		t.Fatalf("%v: valid %v, candidates' slots %v", s.Features, valid, slots)
	}
	if v := s.BuildSparse(nn.SparseVec{}, net, recordNow, cands); !same(v) {
		t.Fatalf("%v: BuildSparse = %v, reference %v", s.Features, v, want)
	}
	dense, ref := make([]float64, s.InputSize()), make([]float64, s.InputSize())
	want.ScatterInto(ref)
	for i, x := range s.BuildStateInto(dense, net, recordNow, cands) {
		if math.Float64bits(x) != math.Float64bits(ref[i]) {
			t.Fatalf("%v: BuildStateInto element %d is %v, reference %v", s.Features, i, x, ref[i])
		}
	}
}

// TestRecordExpandMatchesExtract: a state rebuilt from an arbitration's record
// is the state Extract builds from the messages themselves, for every spec an
// agent records with, at readings past every normalization cap.
func TestRecordExpandMatchesExtract(t *testing.T) {
	net, cores := busyNetwork()
	if net.OutstandingFrom(cores[0].ID) <= 32 || net.OutstandingFrom(cores[1].ID) == 0 {
		t.Fatalf("outstanding %d and %d: the in-flight cap is not passed",
			net.OutstandingFrom(cores[0].ID), net.OutstandingFrom(cores[1].ID))
	}
	rng := rand.New(rand.NewSource(61))
	for _, s := range recordSpecs() {
		for trial := 0; trial < 300; trial++ {
			requireRecordMatchesExtract(t, s, net, randomCands(rng, s, cores))
		}
		// Every scalar reading at the one-byte boundary, negative and
		// 2^62: the escapes fall on the first feature of a candidate
		// (payload) and on the last (the mesh's hop count), in records in
		// slot order and out of it.
		for _, x := range []int64{253, 254, 255, 256, -1, 1 << 62} {
			at := candidate(s, 4, cores[0].ID, int(x), x, int(x), int(x), x, 1, 2)
			small := candidate(s, 2, cores[1].ID, 1, 3, 2, 1, 5, 0, 1)
			requireRecordMatchesExtract(t, s, net, []noc.Candidate{small, at})
			requireRecordMatchesExtract(t, s, net, []noc.Candidate{at, small, at})
		}
	}
}

// TestAgentDecodesWithItsOwnSpec: an agent keeps a copy of the spec it was
// built with, so changing the caller's spec afterwards changes neither what
// the agent records nor how a stored record decodes.
func TestAgentDecodesWithItsOwnSpec(t *testing.T) {
	net, cores := busyNetwork()
	mesh := MeshSpec(3)
	spec := NewStateSpec(mesh.Ports, mesh.VCs, slices.Clone(mesh.Features), mesh.Norm)
	a := NewAgent(spec, AgentConfig{Hidden: 8, Seed: 3})
	cands := randomCands(rand.New(rand.NewSource(4)), spec, cores)
	want := referenceBuildSparse(mesh, net, recordNow, cands)
	ctx := &noc.ArbContext{Net: net, Router: net.RouterAt(1, 1), Out: noc.PortNorth, Cycle: recordNow}
	a.Select(ctx, cands)
	spec.Features[0], spec.Norm.LocalAgeCap = FeatHopCount, 1
	a.Select(ctx, cands)
	a.FlushPending()
	for i := 0; i < a.DQL.Replay.Len(); i++ {
		if got := a.DQL.Replay.At(i).State; !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("stored state %d decodes to %v, want %v", i, got, want)
		}
	}
}

// fuzzCandBytes is how many bytes of fuzz input make one candidate.
const fuzzCandBytes = 1 + 1 + 1 + 8 + 1 + 1 + 8 + 1 + 1

// FuzzStateRecordMatchesExtract holds Expand(Record) to the reference state
// for candidates read from the input: per candidate a slot, a source (core
// 0, 1 or another, so 51, 11 or 0 messages outstanding), its size, local age
// and gap as raw 64-bit values, distance, hop count, type and destination
// kind, on the spec the first byte picks.
func FuzzStateRecordMatchesExtract(f *testing.F) {
	net, cores := busyNetwork()
	specs := recordSpecs()
	f.Fuzz(func(t *testing.T, which uint8, raw []byte) {
		s := specs[int(which)%len(specs)]
		var cands []noc.Candidate
		for ; len(raw) >= fuzzCandBytes && len(cands) < 64; raw = raw[fuzzCandBytes:] {
			b := raw[:fuzzCandBytes]
			cands = append(cands, candidate(s, int(b[0])%s.ActionSize(), cores[int(b[1])%3].ID,
				1+int(b[2]), int64(binary.LittleEndian.Uint64(b[3:11])), int(b[11]), int(b[12]),
				int64(binary.LittleEndian.Uint64(b[13:21])), b[21], b[22]))
		}
		if len(cands) == 0 {
			return
		}
		requireRecordMatchesExtract(t, s, net, cands)
	})
}

// sortedSites returns the arbitration sites (siteKey) of pending in ascending
// order.
func sortedSites[D any](pending map[int64]D) []int64 {
	keys := make([]int64, 0, len(pending))
	for key := range pending {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/traffic"
	"mlnoc/internal/xrand"
)

// recordDataset drives a mesh under a round-robin behaviour policy, flushes
// the recorder and drains the mesh, and returns the recorder.
func recordDataset(t *testing.T, cycles int, seed int64) (*Recorder, *StateSpec) {
	rec, net := recordUnder(t, arb.NewRoundRobin(), cycles, seed)
	net.Drain(100000)
	return rec, rec.Spec
}

// recordUnder drives a mesh for cycles under the behaviour policy beh,
// flushes the recorder and returns it with the mesh.
func recordUnder(t *testing.T, beh noc.Policy, cycles int, seed int64) (*Recorder, *noc.Network) {
	t.Helper()
	rec := NewRecorder(MeshSpec(3), beh)
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 1})
	net.SetPolicy(rec)
	net.OnCycle = rec.OnCycle
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.22, xrand.New(seed))
	in.Classes = 3
	for i := 0; i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	rec.Flush()
	return rec, net
}

func TestRecorderCollects(t *testing.T) {
	rec, spec := recordDataset(t, 2000, 7)
	if rec.Data.Len() < 500 {
		t.Fatalf("recorded only %d experiences", rec.Data.Len())
	}
	// Rewards are the binary global-age signal.
	zeros, ones := 0, 0
	for i := 0; i < rec.Data.Len(); i++ {
		e := rec.Data.At(i)
		switch e.Reward {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("unexpected reward %v", e.Reward)
		}
		if !wellFormed(e.State, spec.InputSize()) || len(e.State.Idx) == 0 {
			t.Fatalf("recorded state %+v is empty or not a well-formed vector", e.State)
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate reward distribution: %d zeros, %d ones", zeros, ones)
	}
}

// TestRecordingIsDeterministic: recordings with the same seed save to the same
// bytes. Flush appends the decisions still waiting for a successor in
// ascending site order; in the pending map's order the tail of the dataset,
// and so the file and any network trained offline from it, would differ from
// run to run.
func TestRecordingIsDeterministic(t *testing.T) {
	save := func() []byte {
		rec, _ := recordDataset(t, 300, 5)
		var buf bytes.Buffer
		if err := rec.Data.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.Bytes()
	}
	first := save()
	for run := 2; run <= 4; run++ {
		if !bytes.Equal(save(), first) {
			t.Fatalf("recording %d with the same seed saved other bytes than the first", run)
		}
	}
}

// TestDatasetSaveLoadRoundTrip: a loaded recording holds the experiences the
// recorder's own dataset decodes to, and saves back to the same bytes.
func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	rec, spec := recordDataset(t, 500, 8)
	var buf bytes.Buffer
	if err := rec.Data.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	file := bytes.Clone(buf.Bytes())
	got, err := rl.LoadDataset(&buf, spec)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Len() != rec.Data.Len() {
		t.Fatalf("round trip holds %d experiences, recorded %d", got.Len(), rec.Data.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !sameExperience(got.At(i), rec.Data.At(i)) {
			t.Fatalf("round trip changed experience %d", i)
		}
	}
	if err := got.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), file) {
		t.Fatalf("the loaded dataset saves to other bytes (%v)", err)
	}
}

// sameExperience reports whether a and b are the same experience, bit for
// bit: a terminal one's successor is not compared.
func sameExperience(a, b *rl.Experience) bool {
	same := func(x, y nn.SparseVec) bool {
		return slices.Equal(x.Idx, y.Idx) && slices.EqualFunc(x.Val, y.Val, func(p, q float64) bool {
			return math.Float64bits(p) == math.Float64bits(q)
		})
	}
	if !same(a.State, b.State) || a.Action != b.Action || a.Terminal != b.Terminal ||
		math.Float64bits(a.Reward) != math.Float64bits(b.Reward) {
		return false
	}
	return a.Terminal || same(a.Next, b.Next) && slices.Equal(a.NextValid, b.NextValid)
}

// TestRecordingMatchesBuildSparse: a recording decodes to the experiences the
// float path builds at record time. The behaviour policy is wrapped so that
// it also builds each arbitration's state with BuildSparse and its
// candidates' slots in the engine's order, and pairs each site's decisions
// the way the recorder does; every experience of the saved and loaded
// recording equals its pair, the reward's bits included.
func TestRecordingMatchesBuildSparse(t *testing.T) {
	spec := MeshSpec(3)
	reward := rl.NewRewardTracker(rl.RewardGlobalAge)
	rr := arb.NewRoundRobin()
	pending := map[int64]rl.Experience{}
	var want []rl.Experience
	beh := policyFunc(func(ctx *noc.ArbContext, cands []noc.Candidate) int {
		choice := rr.Select(ctx, cands)
		state := spec.BuildSparse(nn.SparseVec{}, ctx.Net, ctx.Cycle, cands)
		valid := make([]int, len(cands))
		for i, c := range cands {
			valid[i] = spec.Slot(c.Port, c.VC)
		}
		if p, ok := pending[siteKey(ctx)]; ok {
			p.Next, p.NextValid = state, valid
			want = append(want, p)
		}
		pending[siteKey(ctx)] = rl.Experience{State: state, Action: valid[choice], Reward: reward.DecisionReward(ctx, cands, choice)}
		return choice
	})
	rec, _ := recordUnder(t, beh, 1500, 12)
	for _, key := range sortedSites(pending) {
		p := pending[key]
		p.Terminal = true
		want = append(want, p)
	}
	var buf bytes.Buffer
	if err := rec.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := rl.LoadDataset(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) {
		t.Fatalf("recorded %d experiences, want %d", got.Len(), len(want))
	}
	terminal := 0
	for i := range want {
		if !sameExperience(got.At(i), &want[i]) {
			t.Fatalf("experience %d decodes to %+v, built at record time as %+v", i, *got.At(i), want[i])
		}
		if want[i].Terminal {
			terminal++
		}
	}
	if terminal == 0 || terminal == len(want) {
		t.Fatalf("%d of %d experiences terminal: both kinds must be compared", terminal, len(want))
	}
}

// datasetFile returns the file of a dataset under spec whose experiences are
// the terminal transitions of the given states and actions, saved. The
// header's fields sit at these offsets: the version at 8, the state size
// at 12, the action count at 16, the record count at 20 and the body length
// at 28; the body starts at 36 and the checksum takes the last four bytes.
func datasetFile(t *testing.T, spec *StateSpec, states [][]byte, actions ...int) []byte {
	t.Helper()
	d := rl.NewDataset(spec)
	for i, s := range states {
		d.Add(rl.Transition{State: s, Action: actions[i], Reward: 1, Terminal: true})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal returns a copy of file with fn applied and its checksum recomputed.
func reseal(file []byte, fn func(b []byte)) []byte {
	b := bytes.Clone(file)
	fn(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// withBody returns file with its body replaced by body, holding count records.
func withBody(file []byte, count int, body []byte) []byte {
	b := append(append(bytes.Clone(file[:36]), body...), 0, 0, 0, 0)
	return reseal(b, func(b []byte) {
		binary.LittleEndian.PutUint64(b[20:], uint64(count))
		binary.LittleEndian.PutUint64(b[28:], uint64(len(body)))
	})
}

// TestLoadDatasetRejectsGarbage: a file that is not a dataset file, and every
// record that would otherwise fail later inside TrainOffline, is refused at
// load with an error, which names the record where there is one.
func TestLoadDatasetRejectsGarbage(t *testing.T) {
	spec := MeshSpec(3)
	// A record of one candidate in slot 5 whose payload reading is 1 and
	// whose other readings are 0, each one byte.
	good := append([]byte{5, 1}, make([]byte, len(spec.Features)-1)...)
	file := datasetFile(t, spec, [][]byte{good, good}, 0, 14)
	if d, err := rl.LoadDataset(bytes.NewReader(file), spec); err != nil || d.Len() != 2 {
		t.Fatalf("well-formed file refused: %v", err)
	}
	goodBody := file[36 : len(file)-4]
	first := goodBody[:len(goodBody)/2]
	// A dataset file of earlier releases was a gob stream.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		StateSize, Actions int
		Records            []rl.Experience
	}{60, 15, []rl.Experience{{Action: 1, Terminal: true}}}); err != nil {
		t.Fatal(err)
	}
	// The same two experiences as file, saved in format version 1, whose
	// transitions opened with four uvarints and whose readings were varints.
	v1, err := hex.DecodeString("6d6c6e6f6358500a010000003c0000000f00000002000000000000001600000000000000" +
		"bfe0030105000502000000bfe0031d05000502000000708118c8")
	if err != nil {
		t.Fatal(err)
	}
	// The kind bytes of a stored transition: reward 1, terminal, wide.
	const one, term, wide = 1, 4, 8
	le := binary.LittleEndian
	wideHeader := le.AppendUint64(le.AppendUint64(le.AppendUint64([]byte{wide | term | one}, 0), uint64(len(good))), 0)
	for _, c := range []struct {
		name, want string
		file       []byte
	}{
		{"empty file", "not a dataset file", nil},
		{"gob file", "not a dataset file", old.Bytes()},
		{"version 1 file", "format version 1, want 2", v1},
		{"truncated file", "body of", file[:len(file)-7]},
		{"bytes past the checksum", "body of", append(bytes.Clone(file), 0)},
		{"other version", "format version 3", reseal(file, func(b []byte) { b[8] = 3 })},
		{"other state size", "shapes 80 x 15, the codec's 60 x 15", reseal(file, func(b []byte) { le.PutUint32(b[12:], 80) })},
		{"other action count", "shapes 60 x 20, the codec's 60 x 15", reseal(file, func(b []byte) { le.PutUint32(b[16:], 20) })},
		{"oversized body length", "body of 1099511627776 bytes", reseal(file, func(b []byte) { le.PutUint64(b[28:], 1<<40) })},
		{"record count past the records", "2 records, header says 3", reseal(file, func(b []byte) { le.PutUint64(b[20:], 3) })},
		{"checksum mismatch", "checksum", func() []byte { b := bytes.Clone(file); b[40] ^= 1; return b }()},
		{"unknown kind", "record 1: malformed transition", withBody(file, 2, append(append(bytes.Clone(first), 16|term|one, 0, 5, 0), good...))},
		{"two reward kinds", "record 1: malformed transition", withBody(file, 2, append(append(bytes.Clone(first), term|3, 0, 5, 0), good...))},
		{"wide header cut short", "record 1: malformed transition", withBody(file, 2, append(append(bytes.Clone(first), wide), make([]byte, 23)...))},
		{"reward bits cut short", "record 1: malformed transition", withBody(file, 2, append(bytes.Clone(first), 2, 0, 0, 0, 1, 2))},
		{"transition longer than the body", "record 1: malformed transition", withBody(file, 2, append(bytes.Clone(first), 0, 1, 50, 0))},
		{"bytes after the last record", "record 2: malformed transition", withBody(file, 2, append(bytes.Clone(goodBody), 0, 1, 0))},
		{"wide header on a narrow transition", "record 1: not in canonical form", withBody(file, 2, append(append(bytes.Clone(first), wideHeader...), good...))},
		{"terminal transition with a successor", "record 1: not in canonical form", withBody(file, 2, append(append(bytes.Clone(first), term, 0, 0, 1), 0))},
		{"action beyond the action count", "record 1: action 20 out of 15", datasetFile(t, spec, [][]byte{good, good}, 0, 20)},
		{"slot beyond the action count", "record 1: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{good, append([]byte{byte(spec.ActionSize())}, good[1:]...)}, 0, 0)},
		{"escaped reading with a bad varint", "record 1: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{good, append(bytes.Clone(good[:len(good)-1]), 0xff, 0x80)}, 0, 0)},
		// Records cut short: inside the second reading of the only
		// candidate, into empty storage and into storage grown by a good
		// record, and inside a second candidate whose slot is below the
		// first's, after one reading or in the middle of it.
		{"first record cut inside a candidate", "record 0: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{{2, 0, 0xff, 0x80}}, 0)},
		{"record cut inside a candidate", "record 1: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{good, {2, 0, 0xff, 0x80}}, 0, 0)},
		{"unordered record cut after a reading", "record 1: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{good, {3, 0, 0, 0, 0, 2, 0}}, 0, 0)},
		{"unordered record cut inside a reading", "record 1: decode: core: malformed state record",
			datasetFile(t, spec, [][]byte{good, {3, 0, 0, 0, 0, 2, 0xff, 0x80, 0x80, 0x80}}, 0, 0)},
	} {
		_, err := rl.LoadDataset(bytes.NewReader(c.file), spec)
		if err == nil || !strings.HasPrefix(err.Error(), "rl: load dataset: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadDataset error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// FuzzLoadDataset feeds LoadDataset arbitrary files under the mesh spec, their
// checksums recomputed when fix is set so that the header and the records
// behind it are reached: it must return a dataset or an error, never panic,
// a record its codec cannot decode must be refused as malformed, not by a
// runtime error, and a file it accepts must save back to the same bytes and
// train an agent offline.
func FuzzLoadDataset(f *testing.F) {
	spec := MeshSpec(3)
	f.Fuzz(func(t *testing.T, file []byte, fix bool) {
		if fix && len(file) >= 4 {
			file = reseal(file, func([]byte) {})
		}
		d, err := rl.LoadDataset(bytes.NewReader(file), spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "rl: load dataset: ") || strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), file) {
			t.Fatalf("accepted file saves to other bytes (%v)", err)
		}
		NewAgent(spec, AgentConfig{Hidden: 4, Seed: 1}).DQL.TrainOffline(xrand.New(1), d, 1)
	})
}

// TestOfflineTrainingImprovesPolicy is the end-to-end offline workflow of
// Fig. 2: record a dataset under round-robin behaviour, train a network
// offline from it, and verify the frozen network picks the globally oldest
// candidate far more often than the behaviour policy did.
func TestOfflineTrainingImprovesPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	rec, spec := recordDataset(t, 6000, 9)

	agent := NewAgent(spec, AgentConfig{Hidden: 15, Seed: 1, DQL: rl.DQLConfig{
		LR: 0.05, Gamma: 0.1, SyncEvery: 2000, BatchSize: 1,
	}})
	last := agent.DQL.TrainOffline(xrand.New(2), rec.Data, 20)
	if last <= 0 {
		t.Fatalf("offline training reported TD error %v", last)
	}
	agent.Freeze()

	// Shadow-evaluate the frozen network on live traffic: fraction of
	// contended arbitrations where it grants the globally oldest candidate.
	hits, total := 0, 0
	probe := policyFunc(func(ctx *noc.ArbContext, cands []noc.Candidate) int {
		choice := agent.Select(ctx, cands)
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
	sectionMesh(4, 31).Evaluate(probe, 500, 3000)
	if total == 0 {
		t.Fatal("no contended arbitrations")
	}
	acc := float64(hits) / float64(total)
	if acc < 0.55 {
		t.Fatalf("offline-trained agent oldest-pick accuracy %.2f, want > 0.55", acc)
	}
}

func TestTrainOfflineValidation(t *testing.T) {
	spec := MeshSpec(3)
	agent := NewAgent(spec, AgentConfig{Hidden: 8, Seed: 1})
	empty := rl.NewDataset(spec)
	if got := agent.DQL.TrainOffline(xrand.New(1), empty, 3); got != 0 {
		t.Fatalf("empty dataset trained: %v", got)
	}
	wrong := rl.NewDataset(MeshSpec(2))
	wrong.Add(rl.Transition{Action: 1, Terminal: true})
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	agent.DQL.TrainOffline(xrand.New(1), wrong, 1)
}

package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/traffic"
	"mlnoc/internal/xrand"
)

// recordDataset drives a mesh under a behaviour policy and returns the
// recorded dataset.
func recordDataset(t *testing.T, cycles int, seed int64) (*Recorder, *StateSpec) {
	t.Helper()
	spec := MeshSpec(3)
	rec := NewRecorder(spec, arb.NewRoundRobin())
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
	net.Drain(100000)
	return rec, spec
}

func TestRecorderCollects(t *testing.T) {
	rec, spec := recordDataset(t, 2000, 7)
	if rec.Data.Len() < 500 {
		t.Fatalf("recorded only %d experiences", rec.Data.Len())
	}
	// Shapes validated by Dataset.Add; sanity-check rewards are the binary
	// global-age signal.
	zeros, ones := 0, 0
	for _, e := range rec.Data.Records {
		switch e.Reward {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("unexpected reward %v", e.Reward)
		}
		if err := e.State.Validate(spec.InputSize()); err != nil || len(e.State.Idx) == 0 {
			t.Fatalf("recorded state %+v: %v", e.State, err)
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

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	rec, _ := recordDataset(t, 500, 8)
	var buf bytes.Buffer
	if err := rec.Data.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := rl.LoadDataset(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Len() != rec.Data.Len() || got.StateSize != rec.Data.StateSize ||
		got.Actions != rec.Data.Actions {
		t.Fatal("round trip changed shapes")
	}
	if !reflect.DeepEqual(got.Records, rec.Data.Records) {
		t.Fatal("round trip changed records")
	}
}

// TestLoadDatasetRejectsGarbage: a file that is not a dataset, and every shape
// of record that would otherwise fail later inside TrainOffline, is refused at
// load with an error that names the record.
func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := rl.LoadDataset(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	sv := func(idx []int32, val ...float64) nn.SparseVec { return nn.SparseVec{Idx: idx, Val: val} }
	good := rl.Experience{
		State: sv([]int32{0, 7}, 0.5, 1), Action: 2, Reward: 1,
		Next: sv([]int32{3}, 0.25), NextValid: []int{0, 4},
	}
	bad := []struct {
		name   string
		mutate func(e *rl.Experience)
	}{
		{"state index beyond the state size", func(e *rl.Experience) { e.State = sv([]int32{0, 8}, 1, 1) }},
		{"state index negative", func(e *rl.Experience) { e.State = sv([]int32{-1, 2}, 1, 1) }},
		{"state indices descending", func(e *rl.Experience) { e.State = sv([]int32{5, 2}, 1, 1) }},
		{"state index repeated", func(e *rl.Experience) { e.State = sv([]int32{2, 2}, 1, 1) }},
		{"state with more indices than values", func(e *rl.Experience) { e.State = sv([]int32{1, 2}, 1) }},
		{"state with more values than indices", func(e *rl.Experience) { e.State = sv([]int32{1}, 1, 1) }},
		{"state value NaN", func(e *rl.Experience) { e.State = sv([]int32{1}, math.NaN()) }},
		{"state value infinite", func(e *rl.Experience) { e.State = sv([]int32{1}, math.Inf(-1)) }},
		{"action negative", func(e *rl.Experience) { e.Action = -1 }},
		{"action beyond the action count", func(e *rl.Experience) { e.Action = 5 }},
		{"next index beyond the state size", func(e *rl.Experience) { e.Next = sv([]int32{8}, 1) }},
		{"next indices descending", func(e *rl.Experience) { e.Next = sv([]int32{4, 3}, 1, 1) }},
		{"next with more indices than values", func(e *rl.Experience) { e.Next = sv([]int32{4, 5}, 1) }},
		{"next value infinite", func(e *rl.Experience) { e.Next = sv([]int32{4}, math.Inf(1)) }},
		{"next-valid action beyond the action count", func(e *rl.Experience) { e.NextValid = []int{0, 5} }},
		{"next-valid action negative", func(e *rl.Experience) { e.NextValid = []int{-1} }},
	}
	save := func(records ...rl.Experience) *bytes.Buffer {
		var buf bytes.Buffer
		if err := (&rl.Dataset{StateSize: 8, Actions: 5, Records: records}).Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		return &buf
	}
	terminal := good
	terminal.Terminal, terminal.Next, terminal.NextValid = true, sv([]int32{99}, 1), []int{99}
	if d, err := rl.LoadDataset(save(good, terminal)); err != nil || d.Len() != 2 {
		t.Fatalf("well-formed records (a terminal one's successor is not read) refused: %v", err)
	}
	for _, c := range bad {
		e := good
		c.mutate(&e)
		_, err := rl.LoadDataset(save(good, e))
		if err == nil || !strings.HasPrefix(err.Error(), "rl: load dataset: record 1: ") {
			t.Errorf("%s: LoadDataset error %v, want one naming record 1", c.name, err)
		}
	}
	// A dataset written before states became sparse held them as []float64.
	type denseExperience struct {
		State  []float64
		Action int
	}
	type denseDataset struct {
		StateSize, Actions int
		Records            []denseExperience
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(denseDataset{8, 5, []denseExperience{{make([]float64, 8), 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.LoadDataset(&old); err == nil || !strings.HasPrefix(err.Error(), "rl: load dataset: ") {
		t.Errorf("dense-state dataset: LoadDataset error %v", err)
	}
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
	empty := rl.NewDataset(spec.InputSize(), spec.ActionSize())
	if got := agent.DQL.TrainOffline(xrand.New(1), empty, 3); got != 0 {
		t.Fatalf("empty dataset trained: %v", got)
	}
	wrong := rl.NewDataset(10, 3)
	wrong.Add(rl.Experience{Action: 1, Terminal: true})
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	agent.DQL.TrainOffline(xrand.New(1), wrong, 1)
}

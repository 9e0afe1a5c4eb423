package core_test

import (
	"context"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/synfull"
	"mlnoc/internal/traffic"
)

// trainOn trains a small agent in env for two 300-cycle epochs and returns
// the result and the network it trained on.
func trainOn(t *testing.T, env core.Env, feats core.FeatureSet) (*core.TrainResult, *noc.Network) {
	t.Helper()
	var net *noc.Network
	tr, err := core.Train(context.Background(), core.TrainSpec{
		Env:         env,
		Features:    feats,
		Hidden:      8,
		Epochs:      2,
		EpochCycles: 300,
		Seed:        4,
		Telemetry:   &core.TrainTelemetry{Attach: func(n *noc.Network) { net = n }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Curve) != 2 || tr.Agent.Decisions() == 0 || tr.Agent.DQL.Steps() == 0 {
		t.Fatalf("curve %v, %d decisions, %d SGD steps: the agent did not train",
			tr.Curve, tr.Agent.Decisions(), tr.Agent.DQL.Steps())
	}
	return tr, net
}

// TestTrainOnTorus: a torus is a mesh Env whose Config says so, and Train
// trains on the network it describes.
func TestTrainOnTorus(t *testing.T) {
	torus := traffic.Mesh{
		Config: noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 1, Torus: true},
		Rate:   0.2,
		Seed:   9,
	}
	tr, net := trainOn(t, torus, nil)
	if !net.Torus() {
		t.Fatal("trained on a network that does not wrap around")
	}
	if got := tr.Spec.InputSize(); got != 5*3*core.MeshFeatures.Width() {
		t.Fatalf("state of %d inputs, want 5 ports x 3 VCs x %d", got, core.MeshFeatures.Width())
	}
}

// TestTrainOnAnotherWorkload: the APU Env runs whatever models it is given,
// and an agent on it has the Section 4 state.
func TestTrainOnAnotherWorkload(t *testing.T) {
	run := func(name string) *core.TrainResult {
		m, err := synfull.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := trainOn(t, apu.Loop{Models: apu.Homogeneous(m), OpScale: 0.02, Seed: 4}, core.AllFeatures)
		return tr
	}
	histogram, bfs := run("histogram"), run("bfs")
	if got, want := histogram.Spec.InputSize(), core.APUSpec().InputSize(); got != want {
		t.Fatalf("state of %d inputs, want the APU's %d", got, want)
	}
	if histogram.Curve[0] == bfs.Curve[0] && histogram.Agent.Decisions() == bfs.Agent.Decisions() {
		t.Fatal("histogram trained exactly as bfs does: the Env's models were not run")
	}
}

func TestTrainWithoutEnvFails(t *testing.T) {
	if tr, err := core.Train(context.Background(), core.TrainSpec{Seed: 1}); err == nil || tr != nil {
		t.Fatalf("Train without an Env returned %v, %v; want an error", tr, err)
	}
}

package core

import (
	"context"
	"strings"
	"testing"

	"mlnoc/internal/noc"
)

// syntheticMeshHeatmap builds a heatmap with prescribed row means by setting
// first-layer weights directly.
func syntheticMeshHeatmap(t *testing.T, la, hc float64) *Heatmap {
	t.Helper()
	spec := MeshSpec(3)
	agent := NewAgent(spec, AgentConfig{Hidden: 4, Seed: 1})
	l := agent.Net().Layers[0]
	fw := spec.Features.Width()
	for i := range l.W {
		l.W[i] = 0
	}
	for j := 0; j < l.Out; j++ {
		for slot := 0; slot < spec.ActionSize(); slot++ {
			l.W[j*l.In+slot*fw+1] = la // local age element
			l.W[j*l.In+slot*fw+3] = hc // hop count element
		}
	}
	return NewHeatmap(spec, agent.Net())
}

func TestDeriveMeshPolicyShiftSelection(t *testing.T) {
	cases := []struct {
		la, hc         float64
		wantLA, wantHC uint
	}{
		{1.0, 1.0, 1, 1}, // comparable -> the paper's 4x4 function
		{1.0, 2.5, 0, 2}, // hop dominant -> the paper's 8x8 function
		{2.5, 1.0, 2, 0}, // age dominant
		{1.0, 1.8, 1, 1}, // within 2x -> still balanced
	}
	for _, c := range cases {
		h := syntheticMeshHeatmap(t, c.la, c.hc)
		p, d, err := DeriveMeshPolicy(h)
		if err != nil {
			t.Fatalf("derive(la=%v hc=%v): %v", c.la, c.hc, err)
		}
		if r := p.Rule(); r.LAShift != c.wantLA || r.HCShift != c.wantHC {
			t.Fatalf("derive(la=%v hc=%v) = (la<<%d, hc<<%d), want (la<<%d, hc<<%d)",
				c.la, c.hc, r.LAShift, r.HCShift, c.wantLA, c.wantHC)
		}
		if d.Notes == "" || p.Name() == "" {
			t.Fatal("missing derivation notes or name")
		}
	}
}

func TestDeriveMeshPolicyRejectsDegenerate(t *testing.T) {
	h := syntheticMeshHeatmap(t, 0, 0)
	if _, _, err := DeriveMeshPolicy(h); err == nil {
		t.Fatal("degenerate heatmap accepted")
	}
}

// syntheticAPUHeatmap sets the hop-count signs per port pair.
func syntheticAPUHeatmap(t *testing.T, weSign, nsSign, outSign float64) *Heatmap {
	t.Helper()
	spec := APUSpec()
	agent := NewAgent(spec, AgentConfig{Hidden: 4, Seed: 2})
	l := agent.Net().Layers[0]
	fw := spec.Features.Width()
	for i := range l.W {
		l.W[i] = 0
	}
	setHop := func(port noc.PortID, v float64) {
		for vc := 0; vc < spec.VCs; vc++ {
			slot := spec.Slot(port, vc)
			for j := 0; j < l.Out; j++ {
				l.W[j*l.In+slot*fw+3] = v
			}
		}
	}
	setHop(noc.PortWest, weSign)
	setHop(noc.PortEast, weSign)
	setHop(noc.PortNorth, nsSign)
	setHop(noc.PortSouth, nsSign)
	out := agent.Net().Layers[1]
	for i := range out.W {
		out.W[i] = outSign
	}
	return NewHeatmap(spec, agent.Net())
}

func TestDeriveAPUPortRule(t *testing.T) {
	// Negative W/E, positive N/S -> the paper's rule (invert W/E).
	h := syntheticAPUHeatmap(t, -0.5, 0.5, 1)
	p, d, err := DeriveAPUPortRule(h)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rl-inspired-paper-we" {
		t.Fatalf("expected the paper's W/E rule, got %s (%s)", p.Name(), d.Notes)
	}
	// Negative N/S, positive W/E -> the mirrored rule.
	h = syntheticAPUHeatmap(t, 0.5, -0.5, 1)
	p, d, err = DeriveAPUPortRule(h)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rl-inspired" {
		t.Fatalf("expected the mirrored N/S rule, got %s (%s)", p.Name(), d.Notes)
	}
	// A negative output layer flips the reading (Section 4.6's check).
	h = syntheticAPUHeatmap(t, 0.5, -0.5, -1)
	p, _, err = DeriveAPUPortRule(h)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rl-inspired-paper-we" {
		t.Fatal("negative output layer must flip the sign reading")
	}
}

// TestDeriveFromTrainedAgent closes the loop end to end: train, auto-derive,
// and check the derived policy evaluates competitively with the hand-derived
// one — the automation of the paper's Section 3.2 human step.
func TestDeriveFromTrainedAgent(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	mesh := sectionMesh(4, 6)
	tr, err := Train(context.Background(), TrainSpec{Env: mesh, Epochs: 20, EpochCycles: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tr.Agent.Freeze()
	h := NewHeatmap(tr.Spec, tr.Agent.Net())
	derived, d, err := DeriveMeshPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("derived %s: %s", derived.Name(), d.Notes)

	auto := mesh.Evaluate(derived, 500, 4000).AvgLatency
	hand := mesh.Evaluate(NamedRule("rl-inspired-4x4"), 500, 4000).AvgLatency
	nn := mesh.Evaluate(tr.Agent, 500, 4000).AvgLatency
	t.Logf("latency: derived=%.2f hand=%.2f nn=%.2f", auto, hand, nn)
	if auto > hand*1.25 {
		t.Fatalf("auto-derived policy (%.2f) much worse than hand-derived (%.2f)", auto, hand)
	}
	if auto > nn {
		t.Fatalf("auto-derived policy (%.2f) worse than the network it came from (%.2f)", auto, nn)
	}
	if !strings.Contains(derived.Name(), "derived") {
		t.Fatal("derived policy not labelled")
	}
}

package experiments

import (
	"context"
	"testing"

	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
)

// faultTestScale is small enough for CI but long enough that the mid-run kill
// lands inside both the mesh measurement window and the APU programs.
func faultTestScale() Scale {
	return Scale{WarmupCycles: 200, MeasureCycles: 600, OpScale: 0.05, Seed: 3}
}

// TestFaultSweepDeterministic pins the acceptance criterion that a seeded
// faults experiment is reproducible: two runs give the same full-precision
// CSVs and render identically.
func TestFaultSweepDeterministic(t *testing.T) {
	rates := []float64{0, 0.12}
	a, err := FaultSweepRatesCtx(context.Background(), faultTestScale(), nil, rates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweepRatesCtx(context.Background(), faultTestScale(), nil, rates)
	if err != nil {
		t.Fatal(err)
	}
	if ca, cb := a.CSVMesh()+a.CSVAPU(), b.CSVMesh()+b.CSVAPU(); ca != cb {
		t.Fatalf("fault sweep CSVs not deterministic:\nfirst:\n%s\nsecond:\n%s", ca, cb)
	}
	if a.Render() != b.Render() {
		t.Fatalf("fault sweep not deterministic:\nfirst:\n%s\nsecond:\n%s", a.Render(), b.Render())
	}
	if a.MeshKilled[0] != 0 {
		t.Fatalf("healthy row killed %d links", a.MeshKilled[0])
	}
	if a.MeshKilled[1] == 0 {
		t.Fatal("12%% row killed no links")
	}
	for pi := range a.MeshPolicies {
		if a.MeshUnreachable[1][pi] != 0 {
			t.Fatalf("connectivity-preserving kills produced %d unreachable messages under %s",
				a.MeshUnreachable[1][pi], a.MeshPolicies[pi])
		}
		if a.MeshReroutes[1][pi] == 0 {
			t.Fatalf("no reroutes under %s despite killed links", a.MeshPolicies[pi])
		}
	}
	// Degraded cells must still hold real measurements.
	for ri := range rates {
		for pi := range a.APUPolicies {
			if a.APUNorm[ri][pi] <= 0 {
				t.Fatalf("APU cell [%d][%d] has no result", ri, pi)
			}
		}
	}
}

// TestFaultSweepTelemetry checks that the sweep hands its mesh and APU cells
// alike to the hook: every cell yields a snapshot carrying fault counters and
// a tracer that recorded events.
func TestFaultSweepTelemetry(t *testing.T) {
	var got []cellSeen
	res, err := FaultSweepRatesCtx(context.Background(), faultTestScale(),
		recordCells(&got, nil, &trace.Config{SampleEvery: 16}), []float64{0.12})
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[string]*obs.Snapshot{}
	for _, c := range got {
		snaps[c.label] = c.snap
		if c.tracer == nil || c.tracer.Recorded() == 0 {
			t.Errorf("cell %s has no tracer events", c.label)
		}
	}
	want := len(res.MeshPolicies) + len(res.APUPolicies)
	if len(snaps) != want {
		t.Fatalf("the hook kept %d snapshots, want %d", len(snaps), want)
	}
	for name, snap := range snaps {
		if snap.Faults == nil {
			t.Errorf("cell %s snapshot carries no fault counters", name)
		}
	}
}

package experiments

import (
	"context"
	"testing"

	"mlnoc/internal/obs"
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

// TestFaultSweepTelemetry checks that the sweep feeds both mesh and APU cell
// snapshots into a shared registry, with fault counters attached.
func TestFaultSweepTelemetry(t *testing.T) {
	tel := &Telemetry{Registry: obs.NewRegistry()}
	res, err := FaultSweepRatesCtx(context.Background(), faultTestScale(), tel, []float64{0.12})
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.MeshPolicies) + len(res.APUPolicies)
	if tel.Registry.Len() != want {
		t.Fatalf("registry holds %d snapshots, want %d", tel.Registry.Len(), want)
	}
	faulted := 0
	for _, name := range tel.Registry.Names() {
		if tel.Registry.Get(name).Faults != nil {
			faulted++
		}
	}
	if faulted != want {
		t.Fatalf("%d/%d snapshots carry fault counters", faulted, want)
	}
}

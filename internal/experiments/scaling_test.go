package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestScalingStudyDeterminism runs the scaling study at test scale on a mesh
// and a torus, twice: the simulation outcome must repeat bit for bit, and the
// outputs must be populated.
func TestScalingStudyDeterminism(t *testing.T) {
	sc := Scale{WarmupCycles: 200, MeasureCycles: 600, Seed: 5}
	for _, torus := range []bool{false, true} {
		res, err := ScalingStudyCtx(context.Background(), []int{4, 8}, nil, torus, sc)
		if err != nil {
			t.Fatalf("torus=%v: %v", torus, err)
		}
		again, err := ScalingStudyCtx(context.Background(), []int{4, 8}, nil, torus, sc)
		if err != nil {
			t.Fatalf("torus=%v: %v", torus, err)
		}
		if res.RenderInvariant() != again.RenderInvariant() || res.InvariantCSV() != again.InvariantCSV() {
			t.Fatalf("torus=%v: outcome does not repeat:\n%s\n%s", torus, res.RenderInvariant(), again.RenderInvariant())
		}
		for si := range res.Sizes {
			if res.Delivered[si] == 0 {
				t.Fatalf("torus=%v size %d delivered nothing", torus, res.Sizes[si])
			}
			if res.MsgsPerSecPerCore[si] <= 0 || res.StepsPerSec[si] <= 0 {
				t.Fatalf("torus=%v size %d has no throughput", torus, res.Sizes[si])
			}
		}
		out := res.Render()
		for _, want := range []string{"messages/sec/core", "steps/sec", "delivered"} {
			if !strings.Contains(out, want) {
				t.Fatalf("Render missing %q:\n%s", want, out)
			}
		}
		if csv := res.CSV(); !strings.Contains(csv, "topology") {
			t.Fatalf("CSV missing header: %q", csv)
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/core"
)

// DeriveReport runs the future-work experiment: train the mesh agent on the
// 4x4 and 8x8 meshes, auto-derive the priority function from each heatmap
// (core.DeriveMeshPolicy — the mechanized version of the paper's Section 3.2
// human reading), and evaluate derived vs hand-derived vs the network itself.
func DeriveReport(sc Scale) string {
	var b strings.Builder
	b.WriteString("Automated NN -> algorithm derivation (the paper's future-work gap):\n\n")
	for _, size := range []int{4, 8} {
		mesh := UniformMesh(size, 1, sc.Seed+1)
		tr, _ := core.Train(context.TODO(), meshTrainSpec(mesh, sc)) // cannot fail: Env set, TODO never cancels
		tr.Agent.Freeze()
		h := core.NewHeatmap(tr.Spec, tr.Agent.Net())
		derived, d, err := core.DeriveMeshPolicy(h)
		if err != nil {
			fmt.Fprintf(&b, "%dx%d: derivation failed: %v\n", size, size, err)
			continue
		}
		hand := inspiredMesh(size)
		auto := mesh.Evaluate(derived, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
		handLat := mesh.Evaluate(hand, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
		nnLat := mesh.Evaluate(tr.Agent, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
		fmt.Fprintf(&b, "%dx%d mesh:\n", size, size)
		fmt.Fprintf(&b, "  heatmap: local age %.3f, hop count %.3f -> %s\n",
			d.LAWeight, d.HCWeight, d.Notes)
		fmt.Fprintf(&b, "  derived  priority = (local_age<<%d) + (hop_count<<%d): avg latency %.2f\n",
			derived.Rule().LAShift, derived.Rule().HCShift, auto)
		fmt.Fprintf(&b, "  paper's  %-34s avg latency %.2f\n", hand.Name()+":", handLat)
		fmt.Fprintf(&b, "  trained network (frozen):                 avg latency %.2f\n\n", nnLat)
	}
	b.WriteString("The heuristic mechanizes the paper's Fig. 4 reading; the paper's conclusion\n")
	b.WriteString("calls exactly this NN->algorithm step out as the open methodological gap.\n")
	return b.String()
}

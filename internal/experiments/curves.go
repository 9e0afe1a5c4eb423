package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/core"
	"mlnoc/internal/rl"
	"mlnoc/internal/viz"
)

// CurveResult holds a family of training curves over a shared epoch axis
// (Figs. 12 and 13: average message latency vs. training time).
type CurveResult struct {
	Title  string
	Names  []string
	Curves [][]float64
}

// Render formats the curves as an epoch-indexed series table.
func (r *CurveResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteByte('\n')
	n := 0
	for _, c := range r.Curves {
		if len(c) > n {
			n = len(c)
		}
	}
	xs := make([]string, n)
	for i := range xs {
		xs[i] = fmt.Sprintf("%d", i+1)
	}
	b.WriteString(viz.Series("epoch", xs, r.Names, r.Curves))
	b.WriteString("final latency (mean of last quarter):\n")
	for i, c := range r.Curves {
		fmt.Fprintf(&b, "  %-12s %.2f\n", r.Names[i], (&core.TrainResult{Curve: c}).FinalLatency())
	}
	return b.String()
}

// curveMeshSpec is the shared training setup for Figs. 12 and 13: the 8x8
// mesh under uniform-random traffic just below saturation. Below saturation a
// well-trained arbiter keeps source backlogs — and hence the per-epoch
// latency curve — bounded, while a poorly rewarded agent lets the network
// saturate and its curve climb, which is exactly the contrast Fig. 12 shows.
func curveMeshSpec(sc Scale) core.TrainSpec {
	mesh := UniformMesh(8, 1, sc.Seed+1)
	mesh.Rate = 0.12
	cfg := meshTrainSpec(mesh, sc)
	cfg.Epochs, cfg.EpochCycles = sc.Epochs, sc.EpochCycles
	return cfg
}

// RewardCurves reproduces Fig. 12: train the agent with each Section 6.3
// reward function and record the latency curve. Only the global-age reward
// should converge to low latency.
func RewardCurves(sc Scale) *CurveResult {
	res := &CurveResult{
		Title: "Fig. 12: avg message latency vs training time, per reward function",
	}
	for _, kind := range []rl.RewardKind{rl.RewardGlobalAge, rl.RewardAccLatency, rl.RewardLinkUtil} {
		cfg := curveMeshSpec(sc)
		cfg.Reward = kind
		tr, _ := core.Train(context.TODO(), cfg) // cannot fail: Env set, TODO never cancels
		res.Names = append(res.Names, kind.String())
		res.Curves = append(res.Curves, tr.Curve)
	}
	return res
}

// FeatureCurves reproduces Fig. 13: train the agent with a single input
// feature at a time (payload, local age, distance, hop count) plus the full
// feature set, and record the latency curves. Local age should be the best
// single feature.
func FeatureCurves(sc Scale) *CurveResult {
	res := &CurveResult{
		Title: "Fig. 13: avg message latency vs training time, per input feature",
	}
	cases := []struct {
		name  string
		feats core.FeatureSet
	}{
		{"payload", core.FeatureSet{core.FeatPayload}},
		{"localage", core.FeatureSet{core.FeatLocalAge}},
		{"distance", core.FeatureSet{core.FeatDistance}},
		{"hop", core.FeatureSet{core.FeatHopCount}},
		{"allfeature", core.MeshFeatures},
	}
	for _, c := range cases {
		cfg := curveMeshSpec(sc)
		cfg.Features = c.feats
		tr, _ := core.Train(context.TODO(), cfg) // cannot fail: Env set, TODO never cancels
		res.Names = append(res.Names, c.name)
		res.Curves = append(res.Curves, tr.Curve)
	}
	return res
}

// HillClimbReport runs the Section 6.5 hill-climbing feature selection on the
// 4x4 mesh and renders the selection path.
func HillClimbReport(sc Scale) string {
	cfg := meshTrainSpec(UniformMesh(4, 1, sc.Seed+1), sc)
	cfg.Epochs, cfg.EpochCycles = max(2, sc.Epochs/2), sc.EpochCycles
	hc := core.HillClimb(cfg, nil, 3)
	var b strings.Builder
	b.WriteString("Section 6.5 hill-climbing feature selection (4x4 mesh):\n")
	for i, step := range hc.Steps {
		fmt.Fprintf(&b, "round %d:\n", i+1)
		// Tried is a map; walk it in feature order so the report is the same
		// every run.
		for f := core.Feature(0); f < core.NumFeatures; f++ {
			if lat, ok := step.Tried[f]; ok {
				fmt.Fprintf(&b, "    try +%-18s -> %.2f cycles\n", f, lat)
			}
		}
		fmt.Fprintf(&b, "  selected %q (latency %.2f)\n", step.Added.String(), step.Latency)
	}
	fmt.Fprintf(&b, "final set: %v (latency %.2f)\n", featureNames(hc.Best), hc.BestLatency)
	return b.String()
}

func featureNames(fs core.FeatureSet) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
)

// MeshRate returns the uniform-random injection rate (messages per node per
// cycle) used by the Section 3.2 study for the given mesh edge size. The
// rates sit at the onset of saturation, where the paper evaluates ("NoCs
// under heavy contention"): larger meshes saturate at lower per-node rates.
func MeshRate(size int) float64 {
	if size >= 8 {
		return 0.14
	}
	return 0.23
}

// UniformMesh is the Section 3.2 synthetic-traffic setup on a size x size
// mesh: 3 VCs of bufCap messages, uniform-random traffic at MeshRate(size),
// the injector seeded with seed. With single-message buffers (bufCap 1) it is
// the mesh the Section 3.2 agent trains and is evaluated on, and a
// core.TrainSpec's Env; the studies seed its injector with their Scale's
// Seed+1.
func UniformMesh(size, bufCap int, seed int64) traffic.Mesh {
	return traffic.Mesh{
		Config: noc.Config{Width: size, Height: size, VCs: 3, BufferCap: bufCap},
		Rate:   MeshRate(size),
		Seed:   seed,
	}
}

// meshTrainSpec trains the Section 3.2 agent on mesh: one 1000-cycle epoch
// per thousand sc.TrainCycles, at least one.
func meshTrainSpec(mesh traffic.Mesh, sc Scale) core.TrainSpec {
	return core.TrainSpec{
		Env:         mesh,
		Hidden:      15,
		Epochs:      max(1, int(sc.TrainCycles/1000)),
		EpochCycles: 1000,
		Seed:        sc.Seed,
	}
}

// inspiredMesh is the paper's hand-derived mesh policy for a size x size mesh.
func inspiredMesh(size int) *core.RulePolicy {
	if size >= 8 {
		return core.NamedRule("rl-inspired-8x8")
	}
	return core.NamedRule("rl-inspired-4x4")
}

// MeshStudyResult is the outcome of the Section 3.2 synthetic-traffic study
// for one mesh size: Fig. 5's latency comparison plus Fig. 4's heatmap from
// the trained agent.
type MeshStudyResult struct {
	Size       int
	Policies   []string
	AvgLatency []float64
	// Normalized is AvgLatency divided by the Global-age policy's latency —
	// the quantity plotted in Fig. 5.
	Normalized []float64
	// Heatmap is the trained agent's weight heatmap (Fig. 4 for 4x4).
	Heatmap *core.Heatmap
}

// MeshStudy reproduces the Section 3.2 study on a size x size mesh: train the
// DQL agent under uniform-random traffic, freeze it, and compare FIFO, the
// RL-inspired policy, the frozen NN and Global-age arbitration.
func MeshStudy(size int, sc Scale) *MeshStudyResult {
	mesh := UniformMesh(size, 1, sc.Seed+1)
	tr, _ := core.Train(context.TODO(), meshTrainSpec(mesh, sc)) // cannot fail: Env set, TODO never cancels
	tr.Agent.Freeze()

	policies := []struct {
		name string
		p    noc.Policy
	}{
		{"FIFO", arb.NewFIFO()},
		{"RL-inspired", inspiredMesh(size)},
		{"NN", tr.Agent},
		{"Global-age", arb.NewGlobalAge()},
	}

	res := &MeshStudyResult{
		Size:    size,
		Heatmap: core.NewHeatmap(tr.Spec, tr.Agent.Net()),
	}
	for _, pp := range policies {
		run := mesh.Evaluate(pp.p, sc.WarmupCycles, sc.MeasureCycles)
		res.Policies = append(res.Policies, pp.name)
		res.AvgLatency = append(res.AvgLatency, run.AvgLatency)
	}
	base := res.AvgLatency[len(res.AvgLatency)-1] // Global-age
	for _, v := range res.AvgLatency {
		res.Normalized = append(res.Normalized, v/base)
	}
	return res
}

// Render formats the result as a Fig. 5 panel.
func (r *MeshStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 (%dx%d mesh, uniform random): avg latency normalized to Global-age\n",
		r.Size, r.Size)
	rows := make([][]string, len(r.Policies))
	for i := range r.Policies {
		rows[i] = []string{
			r.Policies[i],
			fmt.Sprintf("%.2f", r.AvgLatency[i]),
			fmt.Sprintf("%.3f", r.Normalized[i]),
		}
	}
	b.WriteString(viz.Table([]string{"policy", "avg latency (cycles)", "normalized"}, rows))
	return b.String()
}

// RenderHeatmap formats the trained agent's weight heatmap (Fig. 4).
func (r *MeshStudyResult) RenderHeatmap() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 (%dx%d agent): mean |weight| of hidden-layer inputs\n", r.Size, r.Size)
	b.WriteString(viz.Heatmap(r.Heatmap.RowLabels, r.Heatmap.ColLabels, r.Heatmap.Abs))
	b.WriteString("feature importance (row means, descending):\n")
	for _, row := range r.Heatmap.RankedRows() {
		fmt.Fprintf(&b, "  %-18s %.4f\n", r.Heatmap.RowLabels[row], r.Heatmap.RowMean(row))
	}
	return b.String()
}

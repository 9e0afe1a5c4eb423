package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/apu"
	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
)

// DefaultFaultRates are the link-kill fractions swept by the faults
// experiment: healthy baseline plus the 5-15% degradation band.
var DefaultFaultRates = []float64{0, 0.05, 0.10, 0.15}

// FaultSweepResult holds the policy-robustness study: for each fault rate
// (fraction of undirected mesh links killed mid-run, connectivity-preserving)
// and each arbitration policy, performance on the 8x8 synthetic-traffic mesh
// and on the APU running bfs. The question it answers: does the RL-inspired
// policy's healthy-network win survive when the network degrades?
type FaultSweepResult struct {
	Rates []float64

	// Mesh part: 8x8 uniform-random traffic at the Section 3.2 rate.
	MeshPolicies []string
	// MeshLatency[r][p] is average message latency in cycles; MeshNorm is
	// normalized to the Global-age column of the same rate row.
	MeshLatency, MeshNorm [][]float64
	// MeshKilled[r] is the number of undirected links killed at rate r (the
	// same physical kill set for every policy in the row).
	MeshKilled []int64
	// MeshReroutes[r][p] counts grants routed around damage.
	MeshReroutes [][]int64
	// MeshUnreachable[r][p] counts unreachable-verdict evictions (zero as
	// long as the kill sets preserve connectivity).
	MeshUnreachable [][]int64

	// APU part: bfs in all four quadrants.
	APUPolicies []string
	// APUNorm[r][p] is average program execution time normalized to the
	// Global-age column of the same rate row.
	APUNorm [][]float64
	// APUReroutes[r][p] counts grants routed around damage.
	APUReroutes [][]int64
}

// meshFaultFactories returns the policies compared on the degraded mesh.
func meshFaultFactories() []PolicyFactory {
	return []PolicyFactory{
		{Name: "Round-robin", New: func(int64) noc.Policy { return arb.NewRoundRobin() }},
		{Name: "iSLIP", New: func(int64) noc.Policy { return arb.NewISLIP(2) }},
		{Name: "FIFO", New: func(int64) noc.Policy { return arb.NewFIFO() }},
		{Name: "RL-inspired", New: func(int64) noc.Policy { return core.NamedRule("rl-inspired-8x8") }},
		{Name: "Global-age", New: func(int64) noc.Policy { return arb.NewGlobalAge() }},
	}
}

// FaultSweepRatesCtx runs the faults experiment over the given link-kill
// fractions (DefaultFaultRates for the paper's sweep). Every cell is seeded
// from sc.Seed and the per-rate kill seed is shared across policies, so each
// policy faces the identical physical fault scenario and the whole sweep is
// reproducible run to run. hook and ctx work as in ExecSweepCtx.
func FaultSweepRatesCtx(ctx context.Context, sc Scale, hook CellHook, rates []float64) (*FaultSweepResult, error) {
	meshFs, apuFs := meshFaultFactories(), apuFactories(nil)
	res := &FaultSweepResult{
		Rates:        append([]float64(nil), rates...),
		MeshPolicies: policyNames(meshFs),
		APUPolicies:  policyNames(apuFs),
	}
	nr := len(rates)
	res.MeshLatency = makeMatrix[float64](nr, len(meshFs))
	res.MeshKilled = make([]int64, nr)
	res.MeshReroutes = makeMatrix[int64](nr, len(meshFs))
	res.MeshUnreachable = makeMatrix[int64](nr, len(meshFs))
	res.APUReroutes = makeMatrix[int64](nr, len(apuFs))

	meshGA := len(meshFs) - 1 // Global-age is last in both lists
	apuGA := len(apuFs) - 1

	bfs := model("bfs")

	meshTotal := nr * len(meshFs)
	count := &cellCount{hook: hook, total: meshTotal + nr*len(apuFs)}
	// Mid-run fault times: a third into the mesh measurement window, and
	// roughly a third into the APU programs (whose length tracks OpScale).
	meshKillAt := sc.WarmupCycles + sc.MeasureCycles/3
	apuKillAt := max(1, int64(8000*sc.OpScale))
	// killSpec is rate row ri's fault scenario: the same kill set for every
	// policy in the row.
	killSpec := func(ri int, at int64) *fault.Spec {
		return &fault.Spec{KillFraction: rates[ri], KillAt: at, Seed: sc.Seed + int64(ri+1)*1009}
	}

	err := parallelForCtx(ctx, meshTotal, func(k int) {
		ri, pi := k/len(meshFs), k%len(meshFs)
		f := meshFs[pi]
		label := fmt.Sprintf("faults-mesh-%.0f%%/%s", 100*rates[ri], f.Name)
		net, in := UniformMesh(8, 8, sc.Seed+int64(ri*len(meshFs)+pi)*17).Build(f.New(sc.Seed + int64(pi)))
		in.Classes = 1 // single-class, as the study's recorded outputs were
		inj, err := killSpec(ri, meshKillAt).Equip(net)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", label, err))
		}
		finished := count.attach(label, net)
		run := traffic.Run(net, in, sc.WarmupCycles, sc.MeasureCycles)
		fs := inj.Stats()
		res.MeshLatency[ri][pi] = run.AvgLatency
		res.MeshReroutes[ri][pi] = fs.Reroutes
		res.MeshUnreachable[ri][pi] = fs.Unreachable
		if pi == meshGA {
			res.MeshKilled[ri] = fs.LinkKills
		}
		finished()
	})
	if err != nil {
		return nil, err
	}

	rows := make([]apuRow, nr)
	for ri, rate := range rates {
		rows[ri] = apuRow{
			label:  fmt.Sprintf("faults-apu-%.0f%%", 100*rate),
			apps:   apu.Homogeneous(bfs),
			seed:   sc.Seed + int64(ri+1)*271,
			faults: killSpec(ri, apuKillAt),
		}
	}
	cells, err := apuGrid(ctx, sc, count, rows, apuFs)
	if err != nil {
		return nil, err
	}
	for ri, row := range cells {
		for pi, c := range row {
			if c.Faults != nil {
				res.APUReroutes[ri][pi] = c.Faults.Reroutes
			}
		}
		res.MeshNorm = append(res.MeshNorm, stats.Normalize(res.MeshLatency[ri], meshGA))
	}
	res.APUNorm = normalized(cells, avgExec, apuGA)
	return res, nil
}

func makeMatrix[T any](rows, cols int) [][]T {
	m := make([][]T, rows)
	for i := range m {
		m[i] = make([]T, cols)
	}
	return m
}

// rateLabels formats the fault rates as row labels.
func (r *FaultSweepResult) rateLabels() []string {
	out := make([]string, len(r.Rates))
	for i, v := range r.Rates {
		out[i] = fmt.Sprintf("%.0f%%", 100*v)
	}
	return out
}

// Render formats both parts of the study with a per-rate fault summary.
func (r *FaultSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(renderMatrix(
		"Fault sweep (8x8 mesh, uniform random): avg latency normalized to Global-age per rate",
		"links killed", r.rateLabels(), r.MeshPolicies, r.MeshNorm, nil))
	b.WriteString(renderMatrix(
		"Fault sweep (APU, bfs x4): avg execution time normalized to Global-age per rate",
		"links killed", r.rateLabels(), r.APUPolicies, r.APUNorm, nil))
	b.WriteString("fault summary per rate (Global-age column):\n")
	for ri := range r.Rates {
		ga := len(r.MeshPolicies) - 1
		fmt.Fprintf(&b, "  %4s: %2d links killed, mesh reroutes %d, unreachable %d, apu reroutes %d\n",
			r.rateLabels()[ri], r.MeshKilled[ri],
			r.MeshReroutes[ri][ga], r.MeshUnreachable[ri][ga],
			r.APUReroutes[ri][len(r.APUPolicies)-1])
	}
	return b.String()
}

// CSVMesh exports the mesh part (normalized latency).
func (r *FaultSweepResult) CSVMesh() string {
	return viz.MatrixCSV("fault_rate", r.rateLabels(), r.MeshPolicies, r.MeshNorm)
}

// CSVAPU exports the APU part (normalized execution time).
func (r *FaultSweepResult) CSVAPU() string {
	return viz.MatrixCSV("fault_rate", r.rateLabels(), r.APUPolicies, r.APUNorm)
}

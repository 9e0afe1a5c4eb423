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
	"mlnoc/internal/obs"
	"mlnoc/internal/stats"
	"mlnoc/internal/synfull"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
	"mlnoc/internal/xrand"
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
	// APUAvg[r][p] is average program execution time in cycles; APUNorm is
	// normalized to the Global-age column of the same rate row.
	APUAvg, APUNorm [][]float64
	// APUReroutes[r][p] counts grants routed around damage.
	APUReroutes [][]int64
}

// meshFaultFactories returns the policies compared on the degraded mesh.
func meshFaultFactories() []PolicyFactory {
	return []PolicyFactory{
		{Name: "Round-robin", New: func(int64) noc.Policy { return arb.NewRoundRobin() }},
		{Name: "iSLIP", New: func(int64) noc.Policy { return arb.NewISLIP(2) }},
		{Name: "FIFO", New: func(int64) noc.Policy { return arb.NewFIFO() }},
		{Name: "RL-inspired", New: func(int64) noc.Policy { return core.NewRLInspiredMesh8x8() }},
		{Name: "Global-age", New: func(int64) noc.Policy { return arb.NewGlobalAge() }},
	}
}

// FaultSweepRatesCtx runs the faults experiment over the given link-kill
// fractions (DefaultFaultRates for the paper's sweep). Every cell is seeded
// from sc.Seed and the per-rate kill seed is shared across policies, so each
// policy faces the identical physical fault scenario and the whole sweep is
// reproducible run to run. tel and ctx work as in ExecSweepCtx.
func FaultSweepRatesCtx(ctx context.Context, sc Scale, tel *Telemetry, rates []float64) (*FaultSweepResult, error) {
	res := &FaultSweepResult{Rates: append([]float64(nil), rates...)}

	meshFs := meshFaultFactories()
	for _, f := range meshFs {
		res.MeshPolicies = append(res.MeshPolicies, f.Name)
	}
	apuFs := apuFactories(nil)
	for _, f := range apuFs {
		res.APUPolicies = append(res.APUPolicies, f.Name)
	}
	nr := len(rates)
	res.MeshLatency = makeMatrix(nr, len(meshFs))
	res.MeshKilled = make([]int64, nr)
	res.MeshReroutes = makeIntMatrix(nr, len(meshFs))
	res.MeshUnreachable = makeIntMatrix(nr, len(meshFs))
	res.APUAvg = makeMatrix(nr, len(apuFs))
	res.APUReroutes = makeIntMatrix(nr, len(apuFs))

	meshGA := len(meshFs) - 1 // Global-age is last in both lists
	apuGA := len(apuFs) - 1

	bfs, err := synfull.ByName("bfs")
	if err != nil {
		panic(err)
	}

	meshTotal := nr * len(meshFs)
	apuTotal := nr * len(apuFs)
	total := meshTotal + apuTotal
	// Mid-run fault times: a third into the mesh measurement window, and
	// roughly a third into the APU programs (whose length tracks OpScale).
	meshKillAt := sc.WarmupCycles + sc.MeasureCycles/3
	apuKillAt := int64(8000 * sc.OpScale)
	if apuKillAt < 1 {
		apuKillAt = 1
	}

	err = parallelForCtx(ctx, meshTotal, func(k int) {
		ri, pi := k/len(meshFs), k%len(meshFs)
		f := meshFs[pi]
		label := fmt.Sprintf("faults-mesh-%.0f%%/%s", 100*rates[ri], f.Name)
		spec := fault.Spec{
			KillFraction: rates[ri],
			KillAt:       meshKillAt,
			Seed:         sc.Seed + int64(ri+1)*1009, // same kill set per rate row
		}
		net, cores := noc.BuildMeshCores(noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 8})
		net.SetPolicy(f.New(sc.Seed + int64(pi)))
		inj, err := spec.Equip(net)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", label, err))
		}
		var suite *obs.Suite
		if cfg := tel.suiteConfig(); cfg != nil {
			suite = obs.Attach(net, *cfg)
		}
		in := traffic.NewInjector(cores, traffic.UniformRandom{}, MeshRate(8),
			xrand.New(sc.Seed+int64(ri*len(meshFs)+pi)*17))
		run := traffic.Run(net, in, sc.WarmupCycles, sc.MeasureCycles)
		fs := inj.Stats()
		res.MeshLatency[ri][pi] = run.AvgLatency
		res.MeshReroutes[ri][pi] = fs.Reroutes
		res.MeshUnreachable[ri][pi] = fs.Unreachable
		if pi == meshGA {
			res.MeshKilled[ri] = fs.LinkKills
		}
		tel.cellSnapshot(total, label, suite)
	})
	if err != nil {
		return nil, err
	}

	err = parallelForCtx(ctx, apuTotal, func(k int) {
		ri, pi := k/len(apuFs), k%len(apuFs)
		f := apuFs[pi]
		label := fmt.Sprintf("faults-apu-%.0f%%/%s", 100*rates[ri], f.Name)
		spec := fault.Spec{
			KillFraction: rates[ri],
			KillAt:       apuKillAt,
			Seed:         sc.Seed + int64(ri+1)*1009,
		}
		seed := sc.Seed + int64(ri+1)*271
		r := apu.RunWorkload(apu.Config{}, f.New(seed+int64(pi)), apu.Homogeneous(bfs),
			apu.RunnerConfig{
				OpScale: sc.OpScale,
				Seed:    seed,
				Obs:     tel.suiteConfig(),
				Trace:   tel.traceConfig(),
				Faults:  &spec,
			})
		if !r.Finished {
			panic(cellFailure(label, r))
		}
		res.APUAvg[ri][pi] = r.Avg
		if r.Faults != nil {
			res.APUReroutes[ri][pi] = r.Faults.Reroutes
		}
		tel.cellDone(total, label, r)
	})
	if err != nil {
		return nil, err
	}

	for ri := range rates {
		res.MeshNorm = append(res.MeshNorm, stats.Normalize(res.MeshLatency[ri], meshGA))
		res.APUNorm = append(res.APUNorm, stats.Normalize(res.APUAvg[ri], apuGA))
	}
	return res, nil
}

func makeMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

func makeIntMatrix(rows, cols int) [][]int64 {
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
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

// CSV exports both parts, mesh first.
func (r *FaultSweepResult) CSV() string {
	return r.CSVMesh() + r.CSVAPU()
}

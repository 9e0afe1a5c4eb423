package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/apu"
	"mlnoc/internal/core"
	"mlnoc/internal/rl"
	"mlnoc/internal/stats"
	"mlnoc/internal/synfull"
	"mlnoc/internal/viz"
)

// TrainAPUCtx trains the paper's 504-input APU agent (Section 4.6) online on
// the Bfs workload model — the application the paper uses to derive Fig. 7 —
// re-launching the workload until the training budget is spent. The agent
// comes back still training. Freeze only flushes its pending experiences and
// stops training; that is all it needs before it serves as the "NN"
// evaluation policy.
//
// ctx is polled every trainCheckEvery cycles and between workload launches,
// so a cancelled server-side training job stops within a bounded number of
// simulated cycles instead of spending the whole training budget. On
// cancellation the agent trained so far is returned alongside ctx.Err().
func TrainAPUCtx(ctx context.Context, sc Scale) (*core.Agent, error) {
	spec := core.APUSpec()
	agent := core.NewAgent(spec, core.AgentConfig{
		Hidden: 42,
		DQL: rl.DQLConfig{
			BatchSize: 32,
			LR:        0.05,
			Gamma:     0.5,
			ReplayCap: 16000,
			SyncEvery: 2000,
		},
		EpsStart:       0.5,
		EpsDecayCycles: sc.TrainCycles / 2,
		Seed:           sc.Seed,
	})
	sys := apu.NewSystem(apu.Config{}, sc.Seed+11)
	sys.Net.SetPolicy(agent)
	sys.Net.OnCycle = agent.OnCycle

	model, err := synfull.ByName("bfs")
	if err != nil {
		panic(err)
	}
	var cycles int64
	for launch := int64(0); cycles < sc.TrainCycles; launch++ {
		if ctx.Err() != nil {
			return agent, ctx.Err()
		}
		runner := apu.NewRunner(sys, apu.Homogeneous(model), apu.RunnerConfig{
			OpScale: sc.OpScale,
			Seed:    sc.Seed + 101*launch,
		})
		for !runner.Done() && cycles < sc.TrainCycles {
			if cycles%trainCheckEvery == 0 && ctx.Err() != nil {
				return agent, ctx.Err()
			}
			runner.Step()
			cycles++
		}
	}
	return agent, nil
}

// trainCheckEvery is the cancellation poll period of TrainAPUCtx in cycles:
// coarse enough that the atomic ctx.Err() check is invisible next to a
// simulated cycle, fine enough that cancellation lands within milliseconds.
const trainCheckEvery = 1024

// APUHeatmapFromAgent extracts the Fig. 7 heatmap from an already trained
// agent.
func APUHeatmapFromAgent(agent *core.Agent) *core.Heatmap {
	return core.NewHeatmap(agent.Spec, agent.Net())
}

// RenderAPUHeatmap formats a Fig. 7 heatmap with the Section 4.6 sign
// analysis of the hop-count feature per port.
func RenderAPUHeatmap(h *core.Heatmap) string {
	var b strings.Builder
	b.WriteString("Fig. 7 (APU agent, trained on bfs): mean |weight| of hidden-layer inputs\n")
	b.WriteString(viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))
	b.WriteString("feature importance (row means, descending):\n")
	for _, row := range h.RankedRows() {
		fmt.Fprintf(&b, "  %-22s %.4f\n", h.RowLabels[row], h.RowMean(row))
	}
	hopRow := -1
	for i, lbl := range h.RowLabels {
		if lbl == "hop count" {
			hopRow = i
		}
	}
	if hopRow >= 0 {
		fmt.Fprintf(&b, "hop-count signed weight by port (Section 4.6 analysis; output-layer mean %.4f):\n",
			h.OutputWeightMean)
		for _, port := range []string{"core", "mem", "north", "south", "west", "east"} {
			fmt.Fprintf(&b, "  %-6s %+.4f\n", port, h.PortSignedMean(hopRow, port))
		}
	}
	return b.String()
}

// ExecSweepResult holds the Figs. 9 and 10 matrices: average and tail program
// execution times per (workload, policy), plus their normalizations to the
// Global-age column.
type ExecSweepResult struct {
	Workloads []string
	Policies  []string
	// Avg[w][p] and Tail[w][p] are execution times in cycles.
	Avg, Tail [][]float64
	// NormAvg and NormTail are normalized to the Global-age policy.
	NormAvg, NormTail [][]float64
	// MeanNormAvg and MeanNormTail average the normalized values across
	// workloads (the paper's "on average" numbers).
	MeanNormAvg, MeanNormTail []float64
}

// ExecSweepCtx runs every Table 1 workload (four copies, one per quadrant)
// under every Fig. 9 policy. With trainNN true it first trains the APU agent
// and includes the frozen network as the "NN" policy. tel adds per-cell
// telemetry (progress reporting, obs snapshots, watchdog) and may be nil.
//
// ctx is checked between sweep cells (and inside NN training), so a killed
// server job stops dispatching promptly instead of finishing the whole sweep.
// On cancellation it returns (nil, ctx.Err()); cells already in flight
// complete first.
func ExecSweepCtx(ctx context.Context, sc Scale, trainNN bool, tel *Telemetry) (*ExecSweepResult, error) {
	var nnAgent *core.Agent
	if trainNN {
		var err error
		if nnAgent, err = TrainAPUCtx(ctx, sc); err != nil {
			return nil, err
		}
		nnAgent.Freeze()
	}
	factories := apuFactories(nnAgent)

	res := &ExecSweepResult{}
	for _, f := range factories {
		res.Policies = append(res.Policies, f.Name)
	}
	gaCol := len(factories) - 1 // Global-age is last

	models := synfull.Catalog()
	res.Avg = make([][]float64, len(models))
	res.Tail = make([][]float64, len(models))
	for _, model := range models {
		res.Workloads = append(res.Workloads, model.Name)
	}
	for wi := range models {
		res.Avg[wi] = make([]float64, len(factories))
		res.Tail[wi] = make([]float64, len(factories))
	}
	total := len(models) * len(factories)
	err := parallelForCtx(ctx, total, func(k int) {
		wi, pi := k/len(factories), k%len(factories)
		model, f := models[wi], factories[pi]
		label := model.Name + "/" + f.Name
		seed := sc.Seed + int64(wi+1)*1000
		r := apu.RunWorkload(apu.Config{}, f.New(seed+int64(pi)),
			apu.Homogeneous(model), apu.RunnerConfig{
				OpScale: sc.OpScale,
				Seed:    seed,
				Obs:     tel.suiteConfig(),
				Trace:   tel.traceConfig(),
			})
		if !r.Finished {
			panic(cellFailure(label, r))
		}
		res.Avg[wi][pi], res.Tail[wi][pi] = r.Avg, r.Tail
		tel.cellDone(total, label, r)
	})
	if err != nil {
		return nil, err
	}
	for wi := range models {
		res.NormAvg = append(res.NormAvg, stats.Normalize(res.Avg[wi], gaCol))
		res.NormTail = append(res.NormTail, stats.Normalize(res.Tail[wi], gaCol))
	}

	res.MeanNormAvg = columnMeans(res.NormAvg)
	res.MeanNormTail = columnMeans(res.NormTail)
	return res, nil
}

func columnMeans(m [][]float64) []float64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]float64, len(m[0]))
	for _, row := range m {
		for i, v := range row {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(m))
	}
	return out
}

func renderMatrix(title, rowName string, rows []string, cols []string, m [][]float64, mean []float64) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	table := make([][]string, 0, len(rows)+1)
	for i, r := range rows {
		cells := []string{r}
		for _, v := range m[i] {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		table = append(table, cells)
	}
	if mean != nil {
		cells := []string{"MEAN"}
		for _, v := range mean {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		table = append(table, cells)
	}
	b.WriteString(viz.Table(append([]string{rowName}, cols...), table))
	return b.String()
}

// RenderAvg formats the Fig. 9 matrix (normalized average execution time).
func (r *ExecSweepResult) RenderAvg() string {
	return renderMatrix(
		"Fig. 9: average program execution time, normalized to Global-age",
		"workload", r.Workloads, r.Policies, r.NormAvg, r.MeanNormAvg)
}

// RenderTail formats the Fig. 10 matrix (normalized tail execution time).
func (r *ExecSweepResult) RenderTail() string {
	return renderMatrix(
		"Fig. 10: tail program execution time, normalized to Global-age",
		"workload", r.Workloads, r.Policies, r.NormTail, r.MeanNormTail)
}

// MixResult holds the Fig. 11 matrix: normalized average execution time per
// (mix, policy).
type MixResult struct {
	Mixes    []string
	Policies []string
	NormAvg  [][]float64
	Avg      [][]float64
}

// MixedWorkloadsCtx reproduces Fig. 11: five mixes from four low-injection
// (L) and four high-injection (H) applications, 4L0H through 0L4H, one
// application per quadrant. tel and ctx work as in ExecSweepCtx.
func MixedWorkloadsCtx(ctx context.Context, sc Scale, trainNN bool, tel *Telemetry) (*MixResult, error) {
	var nnAgent *core.Agent
	if trainNN {
		var err error
		if nnAgent, err = TrainAPUCtx(ctx, sc); err != nil {
			return nil, err
		}
		nnAgent.Freeze()
	}
	factories := apuFactories(nnAgent)
	res := &MixResult{}
	for _, f := range factories {
		res.Policies = append(res.Policies, f.Name)
	}
	gaCol := len(factories) - 1

	quads := make([][4]*synfull.Model, 5)
	res.Avg = make([][]float64, 5)
	for high := 0; high <= 4; high++ {
		low := 4 - high
		models, err := synfull.Mix(low, high)
		if err != nil {
			panic(err)
		}
		copy(quads[high][:], models)
		res.Mixes = append(res.Mixes, fmt.Sprintf("%dL%dH", low, high))
		res.Avg[high] = make([]float64, len(factories))
	}
	total := 5 * len(factories)
	err := parallelForCtx(ctx, total, func(k int) {
		high, pi := k/len(factories), k%len(factories)
		f := factories[pi]
		label := fmt.Sprintf("%dL%dH/%s", 4-high, high, f.Name)
		seed := sc.Seed + int64(high+1)*773
		r := apu.RunWorkload(apu.Config{}, f.New(seed+int64(pi)), quads[high],
			apu.RunnerConfig{OpScale: sc.OpScale, Seed: seed, Obs: tel.suiteConfig(),
				Trace: tel.traceConfig()})
		if !r.Finished {
			panic(cellFailure(label, r))
		}
		res.Avg[high][pi] = r.Avg
		tel.cellDone(total, label, r)
	})
	if err != nil {
		return nil, err
	}
	for high := 0; high <= 4; high++ {
		res.NormAvg = append(res.NormAvg, stats.Normalize(res.Avg[high], gaCol))
	}
	return res, nil
}

// Render formats the Fig. 11 matrix.
func (r *MixResult) Render() string {
	return renderMatrix(
		"Fig. 11: mixed workloads, average execution time normalized to Global-age",
		"mix", r.Mixes, r.Policies, r.NormAvg, nil)
}

// AblationResult holds the Section 5.1 de-featuring study: execution time of
// Algorithm 2 variants normalized to the full algorithm, per workload.
type AblationResult struct {
	Workloads []string
	Variants  []string
	// Norm[w][v] is variant v's average execution time divided by the full
	// algorithm's on workload w.
	Norm [][]float64
	// MaxIncrease[v] and MeanIncrease[v] summarize (norm-1) per variant,
	// matching the paper's "up to X% (Y% on average)" phrasing.
	MaxIncrease, MeanIncrease []float64
}

// AblationCtx reproduces the Section 5.1 de-featuring experiment: remove the
// port condition (W/E hop inversion) and the message-type condition (boost)
// from Algorithm 2, one at a time, and measure the slowdown. tel and ctx work
// as in ExecSweepCtx.
func AblationCtx(ctx context.Context, sc Scale, tel *Telemetry) (*AblationResult, error) {
	variants := []struct {
		name string
		p    *core.RLInspiredAPU
	}{
		{"full", core.NewRLInspiredAPU()},
		{"no-port", &core.RLInspiredAPU{InvertNorthSouth: true, DefeaturePort: true}},
		{"no-msgtype", &core.RLInspiredAPU{InvertNorthSouth: true, DefeatureMsgType: true}},
		{"paper-we-rule", core.NewRLInspiredAPUPaper()},
	}
	res := &AblationResult{}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.name)
	}
	models := synfull.Catalog()
	avgs := make([][]float64, len(models))
	for wi, model := range models {
		res.Workloads = append(res.Workloads, model.Name)
		avgs[wi] = make([]float64, len(variants))
	}
	total := len(models) * len(variants)
	err := parallelForCtx(ctx, total, func(k int) {
		wi, vi := k/len(variants), k%len(variants)
		model, v := models[wi], variants[vi]
		label := "ablation-" + model.Name + "/" + v.name
		seed := sc.Seed + int64(wi+1)*131
		// Each cell builds its own policy value: RLInspiredAPU is stateless,
		// so copying the variant struct is enough for concurrency safety.
		p := *v.p
		r := apu.RunWorkload(apu.Config{}, &p, apu.Homogeneous(model),
			apu.RunnerConfig{OpScale: sc.OpScale, Seed: seed, Obs: tel.suiteConfig(),
				Trace: tel.traceConfig()})
		if !r.Finished {
			panic(cellFailure(label, r))
		}
		avgs[wi][vi] = r.Avg
		tel.cellDone(total, label, r)
	})
	if err != nil {
		return nil, err
	}
	for wi := range models {
		res.Norm = append(res.Norm, stats.Normalize(avgs[wi], 0))
	}
	res.MaxIncrease = make([]float64, len(variants))
	res.MeanIncrease = make([]float64, len(variants))
	for _, row := range res.Norm {
		for v, x := range row {
			inc := x - 1
			res.MeanIncrease[v] += inc
			if inc > res.MaxIncrease[v] {
				res.MaxIncrease[v] = inc
			}
		}
	}
	for v := range res.MeanIncrease {
		res.MeanIncrease[v] /= float64(len(res.Norm))
	}
	return res, nil
}

// Render formats the ablation matrix with the paper-style summary line.
func (r *AblationResult) Render() string {
	s := renderMatrix(
		"Section 5.1 ablation: Algorithm 2 variants, avg execution time normalized to full",
		"workload", r.Workloads, r.Variants, r.Norm, nil)
	var b strings.Builder
	b.WriteString(s)
	for v := 1; v < len(r.Variants); v++ {
		fmt.Fprintf(&b, "%s vs full: %+.1f%% max, %+.1f%% mean execution time\n",
			r.Variants[v], 100*r.MaxIncrease[v], 100*r.MeanIncrease[v])
	}
	return b.String()
}

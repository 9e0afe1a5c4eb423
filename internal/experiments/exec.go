package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/apu"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
	"mlnoc/internal/synfull"
	"mlnoc/internal/viz"
)

// APUTrainSpec is the spec core.Train trains the paper's 504-input APU agent
// (Section 4.6) with: sc.TrainCycles cycles, as one epoch, on the bfs
// workload at sc.OpScale, relaunched each time it finishes. The agent comes
// back still training. Freeze only flushes its pending experiences and stops
// training; that is all it needs before it serves as the "NN" evaluation
// policy.
func APUTrainSpec(sc Scale) core.TrainSpec {
	return core.TrainSpec{
		Env:         apu.Loop{Models: apu.Homogeneous(model("bfs")), OpScale: sc.OpScale, Seed: sc.Seed},
		Features:    core.AllFeatures,
		Epochs:      1,
		EpochCycles: sc.TrainCycles,
		Seed:        sc.Seed,
	}
}

// model returns the named synfull model; name is one of the catalog's.
func model(name string) *synfull.Model {
	m, err := synfull.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

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

// apuRow is one row of an APU policy grid: the applications its four
// quadrants run, the seed its cells share, and the fault scenario, if any.
type apuRow struct {
	label  string
	apps   [4]*synfull.Model
	seed   int64
	faults *fault.Spec
}

// apuGrid runs every row under every policy on the APU, each cell on a system
// of its own and cells in parallel, and returns the results as
// res[row][policy]. Cell (r, p) is labelled "<row label>/<policy name>" and
// seeds its workload with rows[r].seed and its policy with rows[r].seed+p.
// Each cell is handed to cells' hook and counted there. ctx works as in
// ExecSweepCtx; a cell that does not finish panics with its network's
// in-flight count and largest queued local age.
func apuGrid(ctx context.Context, sc Scale, cells *cellCount, rows []apuRow, policies []PolicyFactory) ([][]apu.ExecResult, error) {
	res := make([][]apu.ExecResult, len(rows))
	for ri := range res {
		res[ri] = make([]apu.ExecResult, len(policies))
	}
	err := parallelForCtx(ctx, len(rows)*len(policies), func(k int) {
		ri, pi := k/len(policies), k%len(policies)
		row, f := rows[ri], policies[pi]
		label := row.label + "/" + f.Name
		var (
			net      *noc.Network
			finished func()
		)
		r := apu.RunWorkload(apu.Config{}, f.New(row.seed+int64(pi)), row.apps, apu.RunnerConfig{
			OpScale: sc.OpScale,
			Seed:    row.seed,
			Faults:  row.faults,
			Attach:  func(n *noc.Network) { net, finished = n, cells.attach(label, n) },
		})
		if !r.Finished {
			panic(cellFailure(label, net, r.Cycles))
		}
		finished()
		res[ri][pi] = r
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// normalized maps each cell to metric and divides every row by its col
// column.
func normalized(cells [][]apu.ExecResult, metric func(apu.ExecResult) float64, col int) [][]float64 {
	out := make([][]float64, len(cells))
	for ri, row := range cells {
		xs := make([]float64, len(row))
		for pi, c := range row {
			xs[pi] = metric(c)
		}
		out[ri] = stats.Normalize(xs, col)
	}
	return out
}

func avgExec(r apu.ExecResult) float64  { return r.Avg }
func tailExec(r apu.ExecResult) float64 { return r.Tail }

// apuPolicies returns the Fig. 9 policies, with the trained and frozen APU
// agent as NN when trainNN is set.
func apuPolicies(ctx context.Context, sc Scale, trainNN bool) ([]PolicyFactory, error) {
	if !trainNN {
		return apuFactories(nil), nil
	}
	tr, err := core.Train(ctx, APUTrainSpec(sc))
	if err != nil {
		return nil, err
	}
	tr.Agent.Freeze()
	return apuFactories(tr.Agent), nil
}

func policyNames(fs []PolicyFactory) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// ExecSweepResult holds the Figs. 9 and 10 matrices: average and tail program
// execution times per (workload, policy), normalized to the Global-age
// column.
type ExecSweepResult struct {
	Workloads         []string
	Policies          []string
	NormAvg, NormTail [][]float64
	// MeanNormAvg and MeanNormTail average the normalized values across
	// workloads (the paper's "on average" numbers).
	MeanNormAvg, MeanNormTail []float64
}

// ExecSweepCtx runs every Table 1 workload (four copies, one per quadrant)
// under every Fig. 9 policy. With trainNN true it first trains the APU agent
// and includes the frozen network as the "NN" policy. Each cell's network is
// handed to hook (nil for none), which attaches the reader's instruments.
//
// ctx is checked between sweep cells (and inside NN training), so a killed
// server job stops dispatching promptly instead of finishing the whole sweep.
// On cancellation it returns (nil, ctx.Err()); cells already in flight
// complete first.
func ExecSweepCtx(ctx context.Context, sc Scale, trainNN bool, hook CellHook) (*ExecSweepResult, error) {
	policies, err := apuPolicies(ctx, sc, trainNN)
	if err != nil {
		return nil, err
	}
	res := &ExecSweepResult{Policies: policyNames(policies)}
	var rows []apuRow
	for wi, m := range synfull.Catalog() {
		res.Workloads = append(res.Workloads, m.Name)
		rows = append(rows, apuRow{label: m.Name, apps: apu.Homogeneous(m), seed: sc.Seed + int64(wi+1)*1000})
	}
	cells, err := apuGrid(ctx, sc, &cellCount{hook: hook, total: len(rows) * len(policies)}, rows, policies)
	if err != nil {
		return nil, err
	}
	ga := len(policies) - 1 // Global-age is last
	res.NormAvg = normalized(cells, avgExec, ga)
	res.NormTail = normalized(cells, tailExec, ga)
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

// MixResult holds the Fig. 11 matrix: average execution time per (mix,
// policy), normalized to the Global-age column.
type MixResult struct {
	Mixes    []string
	Policies []string
	NormAvg  [][]float64
}

// MixedWorkloadsCtx reproduces Fig. 11: five mixes from four low-injection
// (L) and four high-injection (H) applications, 4L0H through 0L4H, one
// application per quadrant. hook and ctx work as in ExecSweepCtx.
func MixedWorkloadsCtx(ctx context.Context, sc Scale, trainNN bool, hook CellHook) (*MixResult, error) {
	policies, err := apuPolicies(ctx, sc, trainNN)
	if err != nil {
		return nil, err
	}
	res := &MixResult{Policies: policyNames(policies)}
	var rows []apuRow
	for high := 0; high <= 4; high++ {
		models, err := synfull.Mix(4-high, high)
		if err != nil {
			panic(err)
		}
		row := apuRow{label: fmt.Sprintf("%dL%dH", 4-high, high), seed: sc.Seed + int64(high+1)*773}
		copy(row.apps[:], models)
		res.Mixes = append(res.Mixes, row.label)
		rows = append(rows, row)
	}
	cells, err := apuGrid(ctx, sc, &cellCount{hook: hook, total: len(rows) * len(policies)}, rows, policies)
	if err != nil {
		return nil, err
	}
	res.NormAvg = normalized(cells, avgExec, len(policies)-1)
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
// from Algorithm 2, one at a time, and measure the slowdown. hook and ctx work
// as in ExecSweepCtx.
func AblationCtx(ctx context.Context, sc Scale, hook CellHook) (*AblationResult, error) {
	variants := []PolicyFactory{
		{Name: "full", New: func(int64) noc.Policy { return core.NewRLInspiredAPU() }},
		{Name: "no-port", New: func(int64) noc.Policy {
			return &core.RLInspiredAPU{InvertNorthSouth: true, DefeaturePort: true}
		}},
		{Name: "no-msgtype", New: func(int64) noc.Policy {
			return &core.RLInspiredAPU{InvertNorthSouth: true, DefeatureMsgType: true}
		}},
		{Name: "paper-we-rule", New: func(int64) noc.Policy { return core.NewRLInspiredAPUPaper() }},
	}
	res := &AblationResult{Variants: policyNames(variants)}
	var rows []apuRow
	for wi, m := range synfull.Catalog() {
		res.Workloads = append(res.Workloads, m.Name)
		rows = append(rows, apuRow{label: "ablation-" + m.Name, apps: apu.Homogeneous(m), seed: sc.Seed + int64(wi+1)*131})
	}
	cells, err := apuGrid(ctx, sc, &cellCount{hook: hook, total: len(rows) * len(variants)}, rows, variants)
	if err != nil {
		return nil, err
	}
	res.Norm = normalized(cells, avgExec, 0)
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

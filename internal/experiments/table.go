package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/synfull"
	"mlnoc/internal/viz"
)

// Experiment is one entry of Table: the name cmd/experiments and the serve
// daemon know it by, and the run that produces its output.
type Experiment struct {
	Name string
	// Solo keeps the entry out of "all": it is a view of another entry's
	// output, or its output depends on the machine.
	Solo bool
	run  func(context.Context, Input) (Result, error)
}

// Run runs the entry on in with its defaults resolved. A run that fails after
// producing output (quant below Input.QuantMinAgree) returns the output with
// the error.
func (e Experiment) Run(ctx context.Context, in Input) (Result, error) {
	return e.run(ctx, in.resolve())
}

// Input is what an entry runs on: the scale, the sweeps' per-cell hook
// (nil for none), and the parameters of the entries that take one, zero
// meaning the entry's default. TrainNN adds the trained APU agent as the NN
// policy of fig9, fig10, fig9+10, exec and fig11. FaultRates are faults'
// link-kill fractions (DefaultFaultRates). QuantSize is quant's mesh edge
// (DefaultQuantSize), and quant fails below QuantMinAgree INT8/float action
// agreement. ScalingSizes are scaling's and mesh's topology edges
// (DefaultScalingSizes, within CheckTopology's bounds), and Torus wraps them
// into tori.
//
// Every field but Cell, a hook that watches a run without changing it,
// reaches Key, a field added later too unless it is tagged json:"-" and
// listed in TestKeyCoversEveryField's exclusions.
type Input struct {
	Scale         Scale
	Cell          CellHook `json:"-"`
	TrainNN       bool
	FaultRates    []float64
	QuantSize     int
	QuantMinAgree float64
	ScalingSizes  []int
	Torus         bool
}

// resolve fills every zero field of in that has a default with it. It is the
// one reader of the defaults, so a run and its Key see the same values.
func (in Input) resolve() Input {
	if len(in.FaultRates) == 0 {
		in.FaultRates = DefaultFaultRates
	}
	if in.QuantSize == 0 {
		in.QuantSize = DefaultQuantSize
	}
	if len(in.ScalingSizes) == 0 {
		in.ScalingSizes = DefaultScalingSizes
	}
	return in
}

// Key returns the SHA-256 of what the Table entry called entry computes on
// in: the JSON encoding of the name and of in resolved. Two inputs with one
// key run alike, whether a default is left out or spelled out.
func Key(entry string, in Input) [sha256.Size]byte {
	buf, err := json.Marshal(struct {
		Entry string
		Input Input
	}{entry, in.resolve()})
	if err != nil {
		// Only a NaN or infinite float fails, which JSON cannot spell.
		panic(fmt.Sprintf("experiments: key of %s: %v", entry, err))
	}
	return sha256.Sum256(buf)
}

// Result is an entry's output: its rendered tables, and the CSV files of
// their numbers in the order they are written.
type Result struct {
	Rendered string
	CSV      []CSVFile
}

// CSVFile is one CSV artifact of a Result.
type CSVFile struct{ Name, Content string }

// DefaultQuantSize is the mesh edge quant trains and quantizes.
const DefaultQuantSize = 4

// Topology bounds of the scaling and mesh entries, checked before anything is
// allocated: an edge of 100000 would build 10^10 routers. 64 is the largest
// edge the repo measures (the 64x64 sparse-stepping benchmark in
// internal/noc). A torus ring needs three routers
// so that a router's two ring directions stay distinct; an open mesh needs two.
const (
	MaxMeshEdge  = 64
	MaxMeshSizes = 16
	MinTorusEdge = 3
)

// CheckTopology records on c every violation of the topology bounds by sizes,
// naming the list name and its elements name[i].
func CheckTopology(c *cliutil.Check, name string, sizes []int, torus bool) {
	min := int64(2)
	if torus {
		min = MinTorusEdge
	}
	c.AtMost("len("+name+")", int64(len(sizes)), MaxMeshSizes)
	for i, sz := range sizes {
		elem := fmt.Sprintf("%s[%d]", name, i)
		c.AtLeast(elem, int64(sz), min)
		c.AtMost(elem, int64(sz), MaxMeshEdge)
	}
}

// Table lists every experiment. "all" runs the entries that are not Solo, in
// table order.
var Table = []Experiment{
	{Name: "table1", run: plain(func(Input) Result { return Result{Rendered: renderTable1()} })},
	{Name: "table2", run: plain(func(Input) Result { return Result{Rendered: renderTable2()} })},
	{Name: "table3", run: plain(func(Input) Result {
		r := Table3()
		return Result{r.Render(), []CSVFile{{"table3.csv", r.CSV()}}}
	})},
	{Name: "fig4", run: plain(func(in Input) Result {
		r := MeshStudy(4, in.Scale)
		return Result{r.RenderHeatmap(), []CSVFile{{"fig4_heatmap.csv", r.HeatmapCSV()}}}
	})},
	{Name: "fig5", run: plain(func(in Input) Result {
		var res Result
		for _, size := range []int{4, 8} {
			r := MeshStudy(size, in.Scale)
			res.Rendered += r.Render() + "\n"
			res.CSV = append(res.CSV, CSVFile{fmt.Sprintf("fig5_%dx%d.csv", size, size), r.CSV()})
		}
		return res
	})},
	{Name: "fig7", run: view(func(ctx context.Context, in Input) (*core.Heatmap, error) {
		tr, err := core.Train(ctx, APUTrainSpec(in.Scale))
		if err != nil {
			return nil, err
		}
		tr.Agent.Freeze()
		return APUHeatmapFromAgent(tr.Agent), nil
	}, func(h *core.Heatmap) Result {
		return Result{RenderAPUHeatmap(h), []CSVFile{{"fig7_heatmap.csv", viz.HeatmapCSV(h.RowLabels, h.ColLabels, h.Abs)}}}
	})},
	{Name: "fig9", Solo: true, run: view(execSweep, func(r *ExecSweepResult) Result {
		return Result{r.RenderAvg(), []CSVFile{{"fig9_avg.csv", r.CSVAvg()}}}
	})},
	{Name: "fig10", Solo: true, run: view(execSweep, func(r *ExecSweepResult) Result {
		return Result{r.RenderTail(), []CSVFile{{"fig10_tail.csv", r.CSVTail()}}}
	})},
	{Name: "fig9+10", run: view(execSweep, fig9And10)},
	{Name: "exec", Solo: true, run: view(execSweep, fig9And10)},
	{Name: "fig11", run: view(func(ctx context.Context, in Input) (*MixResult, error) {
		return MixedWorkloadsCtx(ctx, in.Scale, in.TrainNN, in.Cell)
	}, func(r *MixResult) Result { return Result{r.Render(), []CSVFile{{"fig11_mixes.csv", r.CSV()}}} })},
	{Name: "fig12", run: plain(func(in Input) Result {
		r := RewardCurves(in.Scale)
		return Result{r.Render(), []CSVFile{{"fig12_rewards.csv", r.CSV()}}}
	})},
	{Name: "fig13", run: plain(func(in Input) Result {
		r := FeatureCurves(in.Scale)
		return Result{r.Render(), []CSVFile{{"fig13_features.csv", r.CSV()}}}
	})},
	{Name: "ablation", run: view(func(ctx context.Context, in Input) (*AblationResult, error) {
		return AblationCtx(ctx, in.Scale, in.Cell)
	}, func(r *AblationResult) Result { return Result{r.Render(), []CSVFile{{"ablation.csv", r.CSV()}}} })},
	{Name: "starvation", run: plain(func(in Input) Result {
		r := Starvation(in.Scale)
		return Result{r.Render(), []CSVFile{{"starvation.csv", r.CSV()}}}
	})},
	{Name: "fairness", run: plain(func(in Input) Result {
		r := Fairness(in.Scale)
		return Result{r.Render(), []CSVFile{{"fairness.csv", r.CSV()}}}
	})},
	{Name: "faults", run: view(func(ctx context.Context, in Input) (*FaultSweepResult, error) {
		return FaultSweepRatesCtx(ctx, in.Scale, in.Cell, in.FaultRates)
	}, func(r *FaultSweepResult) Result {
		return Result{r.Render(), []CSVFile{{"faults_mesh.csv", r.CSVMesh()}, {"faults_apu.csv", r.CSVAPU()}}}
	})},
	{Name: "qtable", run: plain(func(in Input) Result { return Result{Rendered: QTableStudy(in.Scale).Render()} })},
	{Name: "flitcheck", run: plain(func(in Input) Result {
		r := FlitCheck(in.Scale)
		return Result{r.Render(), []CSVFile{{"flitcheck.csv", r.CSV()}}}
	})},
	{Name: "bufablation", run: plain(func(in Input) Result { return Result{Rendered: BufferAblation(in.Scale).Render()} })},
	{Name: "tiebreak", run: plain(func(in Input) Result { return Result{Rendered: TieBreakAblation(in.Scale).Render()} })},
	{Name: "derive", run: plain(func(in Input) Result { return Result{Rendered: DeriveReport(in.Scale)} })},
	{Name: "hillclimb", run: plain(func(in Input) Result { return Result{Rendered: HillClimbReport(in.Scale)} })},
	{Name: "quant", run: runQuant},
	// scaling times its runs; mesh is its deterministic half, the same on
	// every machine, which is what the serve daemon caches.
	{Name: "scaling", Solo: true, run: view(scalingStudy, func(r *ScalingStudyResult) Result {
		return Result{r.Render(), []CSVFile{{"scaling_throughput.csv", r.CSV()}, {"scaling_invariant.csv", r.InvariantCSV()}}}
	})},
	{Name: "mesh", Solo: true, run: view(scalingStudy, func(r *ScalingStudyResult) Result {
		return Result{r.RenderInvariant(), []CSVFile{{"scaling_invariant.csv", r.InvariantCSV()}}}
	})},
}

// Lookup returns the Table entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Table {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// view runs an experiment and keeps the part of its result that part
// returns.
func view[R any](run func(context.Context, Input) (R, error), part func(R) Result) func(context.Context, Input) (Result, error) {
	return func(ctx context.Context, in Input) (Result, error) {
		r, err := run(ctx, in)
		if err != nil {
			return Result{}, err
		}
		return part(r), nil
	}
}

// plain adapts an experiment that cannot be cancelled part-way: it honors a
// cancellation that lands before it starts.
func plain(run func(Input) Result) func(context.Context, Input) (Result, error) {
	return func(ctx context.Context, in Input) (Result, error) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return run(in), nil
	}
}

func execSweep(ctx context.Context, in Input) (*ExecSweepResult, error) {
	return ExecSweepCtx(ctx, in.Scale, in.TrainNN, in.Cell)
}

func fig9And10(r *ExecSweepResult) Result {
	return Result{r.RenderAvg() + "\n" + r.RenderTail(),
		[]CSVFile{{"fig9_avg.csv", r.CSVAvg()}, {"fig10_tail.csv", r.CSVTail()}}}
}

func scalingStudy(ctx context.Context, in Input) (*ScalingStudyResult, error) {
	return ScalingStudyCtx(ctx, in.ScalingSizes, nil, in.Torus, in.Scale)
}

func runQuant(ctx context.Context, in Input) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	r := QuantStudy(in.QuantSize, in.Scale)
	res := Result{r.Render(), []CSVFile{{"quant_fidelity.csv", r.CSV()}}}
	if in.QuantMinAgree > 0 && r.Agreement < in.QuantMinAgree {
		return res, fmt.Errorf("quant: INT8 action agreement %.3f below required %.3f",
			r.Agreement, in.QuantMinAgree)
	}
	return res, nil
}

func renderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: traffic-intensive workloads\n")
	var rows [][]string
	for _, m := range synfull.Catalog() {
		cls := "low-injection"
		if m.HighInjection {
			cls = "high-injection"
		}
		rows = append(rows, []string{m.Suite, m.Name, cls,
			fmt.Sprintf("%d phases", len(m.Phases))})
	}
	b.WriteString(viz.Table([]string{"suite", "application", "class", "model"}, rows))
	return b.String()
}

func renderTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: message features\n")
	var rows [][]string
	for f := core.Feature(0); f < core.NumFeatures; f++ {
		rows = append(rows, []string{f.String(), fmt.Sprintf("%d", f.Width())})
	}
	b.WriteString(viz.Table([]string{"feature", "state elements"}, rows))
	fmt.Fprintf(&b, "total elements per message: %d\n", core.AllFeatures.Width())
	return b.String()
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale quick|full] [-seed N] [-no-nn] <experiment>
//
// where <experiment> is one of: fig4, fig5, fig7, fig9, fig10, fig11, fig12,
// fig13, table1, table2, table3, ablation, starvation, faults, hillclimb,
// quant, scaling, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/cmdline"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/obs"
	"mlnoc/internal/synfull"
	"mlnoc/internal/trace"
	"mlnoc/internal/viz"
)

func main() { cliutil.Main("experiments", run) }

func run(args []string, stdout io.Writer) error {
	cmd := cmdline.New("experiments")
	scale := cmd.String("scale", "quick", "experiment scale: quick or full")
	seed := cmd.Int64("seed", 1, "random seed")
	noNN := cmd.Bool("no-nn", false, "skip NN training in APU sweeps (faster)")
	csvDir := cmd.String("csv", "", "also write results as CSV files into this directory")
	metricsOut := cmd.String("metrics-out", "",
		"write per-cell obs snapshots (JSON) of the APU sweeps to this file")
	watchdog := cmd.Int64("watchdog", 0,
		"attach a watchdog to every sweep cell: flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	progress := cmd.Bool("progress", false, "print sweep cell progress to stderr")
	traceDir := cmd.String("trace-dir", "",
		"write one Chrome/Perfetto trace JSON per APU sweep cell into this directory")
	traceSample := cmd.Uint64("trace-sample", 64, "trace only every Nth message per cell")
	scalingSizes := cmd.String("scaling-sizes", "",
		"scaling experiment: comma-separated topology edge sizes (default 8,16,32)")
	scalingTorus := cmd.Bool("scaling-torus", false,
		"scaling experiment: wrap the topology into a 2D torus")
	quantMinAgree := cmd.Float64("quant-min-agree", 0,
		"quant experiment: exit nonzero when INT8/float action agreement falls below this fraction (0 = report only)")
	cmd.Usage = func() { usage(cmd.FlagSet) }
	if err := cmd.Parse(args); err != nil {
		return err
	}
	if cmd.NArg() != 1 {
		cmd.Usage()
		return cliutil.Usagef("want one experiment, got %d arguments", cmd.NArg())
	}
	var check cliutil.Check
	check.NonNegative("-watchdog", *watchdog)
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.OneOf("-scale", *scale, "quick", "full")
	check.Unit("-quant-min-agree", *quantMinAgree)
	what := strings.ToLower(cmd.Arg(0))
	log, stop, err := cmd.Start(&check, what, *seed, stdout)
	if err != nil {
		return err
	}
	defer stop()

	o := &options{
		stdout:        stdout,
		usage:         cmd.Usage,
		withNN:        !*noNN,
		csvDir:        *csvDir,
		quantMinAgree: *quantMinAgree,
		scalingSizes:  *scalingSizes,
		scalingTorus:  *scalingTorus,
	}
	if *scale == "full" {
		o.sc = experiments.Full()
	} else {
		o.sc = experiments.Quick()
	}
	o.sc.Seed = *seed
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if o.tel, err = o.telemetry(*metricsOut, *watchdog, *progress, *traceDir, *traceSample, log); err != nil {
		return err
	}
	if o.tel != nil && o.tel.Registry != nil {
		o.tel.Registry.SetSeed(*seed)
	}

	if err := o.run(what); err != nil {
		return err
	}
	if o.tel == nil || o.tel.Registry == nil {
		return nil
	}
	reg := o.tel.Registry
	if *metricsOut != "" {
		if err := cliutil.WriteFile(*metricsOut, reg.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(obs metrics written to %s: %d runs)\n", *metricsOut, reg.Len())
	}
	for _, a := range reg.Alerts() {
		log.Warn("watchdog alert", "alert", a)
	}
	return nil
}

// telemetry assembles the sweep telemetry from the observability flags, or
// returns nil when none are set.
func (o *options) telemetry(metricsOut string, watchdog int64, progress bool,
	traceDir string, traceSample uint64, log *slog.Logger) (*experiments.Telemetry, error) {
	if metricsOut == "" && watchdog == 0 && !progress && traceDir == "" {
		return nil, nil
	}
	tel := &experiments.Telemetry{}
	if metricsOut != "" || watchdog != 0 {
		tel.Registry = obs.NewRegistry()
	}
	if watchdog > 0 {
		tel.Watchdog = &obs.WatchdogConfig{
			MaxHeadAge:     watchdog,
			LivelockWindow: watchdog,
		}
	}
	if progress {
		tel.Progress = func(done, total int, label string) {
			log.Info("progress", "done", done, "total", total, "cell", label)
		}
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		tel.Trace = &trace.Config{SampleEvery: traceSample}
		// Telemetry serializes TraceSink calls, and a sweep returns only after
		// its last one, so o.err needs no lock.
		tel.TraceSink = func(label string, tr *trace.Tracer) {
			if o.err != nil {
				return
			}
			// Labels are "workload/policy"; flatten for the filesystem.
			name := strings.NewReplacer("/", "_", " ", "_").Replace(label) + ".trace.json"
			o.err = cliutil.WriteFile(traceDir+string(os.PathSeparator)+name,
				func(w io.Writer) error { return trace.WriteChromeTrace(w, tr) })
			if o.err == nil {
				log.Info("trace written", "file", name, "events", tr.Len())
			}
		}
	}
	return tel, nil
}

// options are one invocation's settings, shared by every experiment "all"
// runs.
type options struct {
	stdout        io.Writer
	usage         func()
	sc            experiments.Scale
	withNN        bool
	csvDir        string
	tel           *experiments.Telemetry
	quantMinAgree float64
	scalingSizes  string
	scalingTorus  bool
	err           error // first failed CSV or trace write; later ones are skipped
}

// csv writes one CSV artifact into -csv and reports the path. After a failed
// write it writes nothing, and run returns the error.
func (o *options) csv(name, content string) {
	if o.csvDir == "" || o.err != nil {
		return
	}
	path := o.csvDir + string(os.PathSeparator) + name
	o.err = cliutil.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
	if o.err == nil {
		fmt.Fprintf(o.stdout, "(csv written to %s)\n", path)
	}
}

func (o *options) run(what string) error {
	ctx := context.Background()
	w, sc := o.stdout, o.sc
	switch what {
	case "fig4":
		r := experiments.MeshStudy(4, sc)
		fmt.Fprint(w, r.RenderHeatmap())
		o.csv("fig4_heatmap.csv", r.HeatmapCSV())
	case "fig5":
		for _, size := range []int{4, 8} {
			r := experiments.MeshStudy(size, sc)
			fmt.Fprint(w, r.Render())
			fmt.Fprintln(w)
			o.csv(fmt.Sprintf("fig5_%dx%d.csv", size, size), r.CSV())
		}
	case "fig7":
		agent, err := experiments.TrainAPUCtx(ctx, sc)
		if err != nil {
			return err
		}
		agent.Freeze()
		h := experiments.APUHeatmapFromAgent(agent)
		fmt.Fprint(w, experiments.RenderAPUHeatmap(h))
		o.csv("fig7_heatmap.csv", viz.HeatmapCSV(h.RowLabels, h.ColLabels, h.Abs))
	case "fig9":
		r, err := experiments.ExecSweepCtx(ctx, sc, o.withNN, o.tel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.RenderAvg())
		o.csv("fig9_avg.csv", r.CSVAvg())
	case "fig10":
		r, err := experiments.ExecSweepCtx(ctx, sc, o.withNN, o.tel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.RenderTail())
		o.csv("fig10_tail.csv", r.CSVTail())
	case "fig9+10", "exec":
		r, err := experiments.ExecSweepCtx(ctx, sc, o.withNN, o.tel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.RenderAvg())
		fmt.Fprintln(w)
		fmt.Fprint(w, r.RenderTail())
		o.csv("fig9_avg.csv", r.CSVAvg())
		o.csv("fig10_tail.csv", r.CSVTail())
	case "fig11":
		r, err := experiments.MixedWorkloadsCtx(ctx, sc, o.withNN, o.tel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Render())
		o.csv("fig11_mixes.csv", r.CSV())
	case "fig12":
		r := experiments.RewardCurves(sc)
		fmt.Fprint(w, r.Render())
		o.csv("fig12_rewards.csv", r.CSV())
	case "fig13":
		r := experiments.FeatureCurves(sc)
		fmt.Fprint(w, r.Render())
		o.csv("fig13_features.csv", r.CSV())
	case "table1":
		fmt.Fprint(w, renderTable1())
	case "table2":
		fmt.Fprint(w, renderTable2())
	case "table3":
		r := experiments.Table3()
		fmt.Fprint(w, r.Render())
		o.csv("table3.csv", r.CSV())
	case "ablation":
		r, err := experiments.AblationCtx(ctx, sc, o.tel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Render())
		o.csv("ablation.csv", r.CSV())
	case "starvation":
		r := experiments.Starvation(sc)
		fmt.Fprint(w, r.Render())
		o.csv("starvation.csv", r.CSV())
	case "faults":
		r, err := experiments.FaultSweepRatesCtx(ctx, sc, o.tel, experiments.DefaultFaultRates)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Render())
		o.csv("faults_mesh.csv", r.CSVMesh())
		o.csv("faults_apu.csv", r.CSVAPU())
	case "fairness":
		r := experiments.Fairness(sc)
		fmt.Fprint(w, r.Render())
		o.csv("fairness.csv", r.CSV())
	case "qtable":
		fmt.Fprint(w, experiments.QTableStudy(sc).Render())
	case "bufablation":
		fmt.Fprint(w, experiments.BufferAblation(sc).Render())
	case "tiebreak":
		fmt.Fprint(w, experiments.TieBreakAblation(sc).Render())
	case "derive":
		fmt.Fprint(w, experiments.DeriveReport(sc))
	case "flitcheck":
		r := experiments.FlitCheck(sc)
		fmt.Fprint(w, r.Render())
		o.csv("flitcheck.csv", r.CSV())
	case "hillclimb":
		fmt.Fprint(w, experiments.HillClimbReport(sc))
	case "scaling":
		sizes, err := parseIntList("-scaling-sizes", o.scalingSizes)
		if err != nil {
			return err
		}
		r, err := experiments.ScalingStudyCtx(ctx, sizes, nil, o.scalingTorus, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Render())
		o.csv("scaling_throughput.csv", r.CSV())
		o.csv("scaling_invariant.csv", r.InvariantCSV())
	case "quant":
		r := experiments.QuantStudy(4, sc)
		fmt.Fprint(w, r.Render())
		o.csv("quant_fidelity.csv", r.CSV())
		if o.quantMinAgree > 0 && r.Agreement < o.quantMinAgree {
			return fmt.Errorf("quant: INT8 action agreement %.3f below required %.3f",
				r.Agreement, o.quantMinAgree)
		}
	case "all":
		for _, e := range []string{
			"table1", "table2", "table3", "fig4", "fig5", "fig7",
			"fig9+10", "fig11", "fig12", "fig13", "ablation", "starvation",
			"fairness", "faults", "qtable", "flitcheck", "bufablation", "tiebreak",
			"derive", "hillclimb", "quant",
		} {
			fmt.Fprintf(w, "==== %s ====\n", e)
			if err := o.run(e); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		o.usage()
		return cliutil.Usagef("unknown experiment %q", what)
	}
	return o.err
}

// parseIntList parses a comma-separated flag value; empty means the
// experiment's default list.
func parseIntList(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, cliutil.Usagef("%s: %q is not a positive integer list", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
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

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `usage: experiments [flags] <experiment>

experiments: fig4 fig5 fig7 fig9 fig10 fig11 fig12 fig13
             table1 table2 table3 ablation starvation fairness faults
             qtable flitcheck bufablation tiebreak derive hillclimb quant
             scaling all

scaling measures single-network stepping throughput over large mesh/torus
sizes; it is excluded from "all" because its throughput numbers are
machine-dependent.

flags:
`)
	fs.PrintDefaults()
}

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
	"log/slog"
	"os"
	"strconv"
	"strings"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/obs"
	"mlnoc/internal/prof"
	"mlnoc/internal/synfull"
	"mlnoc/internal/trace"
	"mlnoc/internal/viz"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	noNN := flag.Bool("no-nn", false, "skip NN training in APU sweeps (faster)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	metricsOut := flag.String("metrics-out", "",
		"write per-cell obs snapshots (JSON) of the APU sweeps to this file")
	watchdog := flag.Int64("watchdog", 0,
		"attach a watchdog to every sweep cell: flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	progress := flag.Bool("progress", false, "print sweep cell progress to stderr")
	traceDir := flag.String("trace-dir", "",
		"write one Chrome/Perfetto trace JSON per APU sweep cell into this directory")
	traceSample := flag.Uint64("trace-sample", 64, "trace only every Nth message per cell")
	flag.StringVar(&scalingSizes, "scaling-sizes", "",
		"scaling experiment: comma-separated topology edge sizes (default 8,16,32)")
	flag.BoolVar(&scalingTorus, "scaling-torus", false,
		"scaling experiment: wrap the topology into a 2D torus")
	quantMinAgree := flag.Float64("quant-min-agree", 0,
		"quant experiment: exit nonzero when INT8/float action agreement falls below this fraction (0 = report only)")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	flag.Usage = usage
	profCfg := prof.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	log := cliutil.SetupLogger("experiments", &logCfg)
	var check cliutil.Check
	check.NonNegative("-watchdog", *watchdog)
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.OneOf("-scale", *scale, "quick", "full")
	check.Exit("experiments")
	profStop, err := prof.Start(*profCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	defer profStop()

	var sc experiments.Scale
	if *scale == "full" {
		sc = experiments.Full()
	} else {
		sc = experiments.Quick()
	}
	sc.Seed = *seed
	withNN := !*noNN
	cliutil.PrintSeed(os.Stdout, sc.Seed)

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	what := strings.ToLower(flag.Arg(0))
	// One correlation ID per invocation on every record, mirroring the
	// daemon's per-job IDs: interleaved JSON logs from a batch of runs
	// separate cleanly by corr_id.
	log = log.With("corr_id", fmt.Sprintf("experiments-%s-%d-%d", what, os.Getpid(), *seed))

	tel := buildTelemetry(*metricsOut, *watchdog, *progress, *traceDir, *traceSample, log)
	if tel != nil && tel.Registry != nil {
		tel.Registry.SetSeed(*seed)
	}

	run(what, sc, withNN, *csvDir, tel, *quantMinAgree)

	if tel != nil && tel.Registry != nil && *metricsOut != "" {
		writeMetrics(*metricsOut, tel.Registry)
	}
	if tel != nil && tel.Registry != nil {
		for _, a := range tel.Registry.Alerts() {
			log.Warn("watchdog alert", "alert", a)
		}
	}
}

// buildTelemetry assembles the sweep telemetry from the observability flags,
// or returns nil when none are set.
func buildTelemetry(metricsOut string, watchdog int64, progress bool,
	traceDir string, traceSample uint64, log *slog.Logger) *experiments.Telemetry {
	if metricsOut == "" && watchdog == 0 && !progress && traceDir == "" {
		return nil
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tel.Trace = &trace.Config{SampleEvery: traceSample}
		tel.TraceSink = func(label string, tr *trace.Tracer) {
			// Labels are "workload/policy"; flatten for the filesystem.
			name := strings.NewReplacer("/", "_", " ", "_").Replace(label) + ".trace.json"
			f, err := os.Create(traceDir + string(os.PathSeparator) + name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := trace.WriteChromeTrace(f, tr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			log.Info("trace written", "file", name, "events", tr.Len())
		}
	}
	return tel
}

func writeMetrics(path string, reg *obs.Registry) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("(obs metrics written to %s: %d runs)\n", path, reg.Len())
}

// writeCSV writes one CSV artifact, reporting the path.
func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	path := dir + string(os.PathSeparator) + name
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("(csv written to %s)\n", path)
}

func run(what string, sc experiments.Scale, withNN bool, csvDir string, tel *experiments.Telemetry, quantMinAgree float64) {
	switch what {
	case "fig4":
		r := experiments.MeshStudy(4, sc)
		fmt.Print(r.RenderHeatmap())
		writeCSV(csvDir, "fig4_heatmap.csv", r.HeatmapCSV())
	case "fig5":
		for _, size := range []int{4, 8} {
			r := experiments.MeshStudy(size, sc)
			fmt.Print(r.Render())
			fmt.Println()
			writeCSV(csvDir, fmt.Sprintf("fig5_%dx%d.csv", size, size), r.CSV())
		}
	case "fig7":
		h := experiments.APUHeatmap(sc)
		fmt.Print(experiments.RenderAPUHeatmap(h))
		writeCSV(csvDir, "fig7_heatmap.csv", viz.HeatmapCSV(h.RowLabels, h.ColLabels, h.Abs))
	case "fig9":
		r := experiments.ExecSweepT(sc, withNN, tel)
		fmt.Print(r.RenderAvg())
		writeCSV(csvDir, "fig9_avg.csv", r.CSVAvg())
	case "fig10":
		r := experiments.ExecSweepT(sc, withNN, tel)
		fmt.Print(r.RenderTail())
		writeCSV(csvDir, "fig10_tail.csv", r.CSVTail())
	case "fig9+10", "exec":
		r := experiments.ExecSweepT(sc, withNN, tel)
		fmt.Print(r.RenderAvg())
		fmt.Println()
		fmt.Print(r.RenderTail())
		writeCSV(csvDir, "fig9_avg.csv", r.CSVAvg())
		writeCSV(csvDir, "fig10_tail.csv", r.CSVTail())
	case "fig11":
		r := experiments.MixedWorkloadsT(sc, withNN, tel)
		fmt.Print(r.Render())
		writeCSV(csvDir, "fig11_mixes.csv", r.CSV())
	case "fig12":
		r := experiments.RewardCurves(sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "fig12_rewards.csv", r.CSV())
	case "fig13":
		r := experiments.FeatureCurves(sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "fig13_features.csv", r.CSV())
	case "table1":
		fmt.Print(renderTable1())
	case "table2":
		fmt.Print(renderTable2())
	case "table3":
		r := experiments.Table3()
		fmt.Print(r.Render())
		writeCSV(csvDir, "table3.csv", r.CSV())
	case "ablation":
		r := experiments.AblationT(sc, tel)
		fmt.Print(r.Render())
		writeCSV(csvDir, "ablation.csv", r.CSV())
	case "starvation":
		r := experiments.Starvation(sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "starvation.csv", r.CSV())
	case "faults":
		r := experiments.FaultSweep(sc, tel)
		fmt.Print(r.Render())
		writeCSV(csvDir, "faults_mesh.csv", r.CSVMesh())
		writeCSV(csvDir, "faults_apu.csv", r.CSVAPU())
	case "fairness":
		r := experiments.Fairness(sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "fairness.csv", r.CSV())
	case "qtable":
		fmt.Print(experiments.QTableStudy(sc).Render())
	case "bufablation":
		fmt.Print(experiments.BufferAblation(sc).Render())
	case "tiebreak":
		fmt.Print(experiments.TieBreakAblation(sc).Render())
	case "derive":
		fmt.Print(experiments.DeriveReport(sc))
	case "flitcheck":
		r := experiments.FlitCheck(sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "flitcheck.csv", r.CSV())
	case "hillclimb":
		fmt.Print(experiments.HillClimbReport(sc))
	case "scaling":
		r, err := experiments.ScalingStudyCtx(context.Background(),
			parseIntList("-scaling-sizes", scalingSizes), nil, scalingTorus, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(r.Render())
		writeCSV(csvDir, "scaling_throughput.csv", r.CSV())
		writeCSV(csvDir, "scaling_invariant.csv", r.InvariantCSV())
	case "quant":
		r := experiments.QuantStudy(4, sc)
		fmt.Print(r.Render())
		writeCSV(csvDir, "quant_fidelity.csv", r.CSV())
		if quantMinAgree > 0 && r.Agreement < quantMinAgree {
			fmt.Fprintf(os.Stderr, "quant: INT8 action agreement %.3f below required %.3f\n",
				r.Agreement, quantMinAgree)
			os.Exit(1)
		}
	case "all":
		for _, w := range []string{
			"table1", "table2", "table3", "fig4", "fig5", "fig7",
			"fig9+10", "fig11", "fig12", "fig13", "ablation", "starvation",
			"fairness", "faults", "qtable", "flitcheck", "bufablation", "tiebreak",
			"derive", "hillclimb", "quant",
		} {
			fmt.Printf("==== %s ====\n", w)
			run(w, sc, withNN, csvDir, tel, quantMinAgree)
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", what)
		usage()
		os.Exit(2)
	}
}

// Scaling-experiment knobs; package-level because run is recursive for "all"
// and the scaling flags only matter to one subcommand.
var (
	scalingSizes string
	scalingTorus bool
)

// parseIntList parses a comma-separated flag value; empty means the
// experiment's default list.
func parseIntList(flagName, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s: %q is not a positive integer list\n", flagName, s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
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

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [flags] <experiment>

experiments: fig4 fig5 fig7 fig9 fig10 fig11 fig12 fig13
             table1 table2 table3 ablation starvation fairness faults
             qtable flitcheck bufablation tiebreak derive hillclimb quant
             scaling all

scaling measures single-network stepping throughput over large mesh/torus
sizes; it is excluded from "all" because its throughput numbers are
machine-dependent.

flags:
`)
	flag.PrintDefaults()
}

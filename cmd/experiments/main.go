// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale quick|full] [-seed N] [-no-nn] <experiment>
//
// where <experiment> names an entry of experiments.Table, or is "all"; -h
// lists them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/cmdline"
	"mlnoc/internal/experiments"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
)

func main() { cliutil.Main("experiments", run) }

func run(args []string, stdout io.Writer) error {
	cmd := cmdline.New("experiments")
	scale := cmd.String("scale", "quick", "experiment scale: quick or full")
	seed := cmd.Int64("seed", 1, "random seed")
	noNN := cmd.Bool("no-nn", false, "skip NN training in APU sweeps (faster)")
	csvDir := cmd.String("csv", "", "also write results as CSV files into this directory")
	metricsOut := cmd.String("metrics-out", "",
		"write per-cell obs snapshots (JSON) of the sweeps to this file")
	watchdog := cmd.Int64("watchdog", 0,
		"attach a watchdog to every sweep cell: flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	progress := cmd.Bool("progress", false, "print sweep cell progress to stderr")
	traceDir := cmd.String("trace-dir", "",
		"write one Chrome/Perfetto trace JSON per sweep cell into this directory")
	traceSample := cmd.Uint64("trace-sample", 64, "trace only every Nth message per cell")
	scalingSizes := cmd.String("scaling-sizes", "",
		"scaling and mesh experiments: comma-separated topology edge sizes (default 8,16,32)")
	scalingTorus := cmd.Bool("scaling-torus", false,
		"scaling and mesh experiments: wrap the topology into a 2D torus")
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
	what := strings.ToLower(cmd.Arg(0))
	e, ok := experiments.Lookup(what)
	if !ok && what != "all" {
		cmd.Usage()
		return cliutil.Usagef("unknown experiment %q", what)
	}
	sizes, err := parseIntList("-scaling-sizes", *scalingSizes)
	if err != nil {
		return err
	}
	var check cliutil.Check
	check.NonNegative("-watchdog", *watchdog)
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.OneOf("-scale", *scale, "quick", "full")
	check.Unit("-quant-min-agree", *quantMinAgree)
	experiments.CheckTopology(&check, "-scaling-sizes", sizes, *scalingTorus)
	log, stop, err := cmd.Start(&check, what, *seed, stdout)
	if err != nil {
		return err
	}
	defer stop()

	sc := experiments.Quick()
	if *scale == "full" {
		sc = experiments.Full()
	}
	sc.Seed = *seed
	o := &options{stdout: stdout, csvDir: *csvDir, in: experiments.Input{
		Scale: sc, TrainNN: !*noNN, QuantMinAgree: *quantMinAgree, ScalingSizes: sizes, Torus: *scalingTorus,
	}}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	snaps, err := o.telemetry(*metricsOut, *watchdog, *progress, *traceDir, *traceSample, log)
	if err != nil {
		return err
	}

	if what == "all" {
		for _, e := range experiments.Table {
			if e.Solo {
				continue
			}
			fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
			if err := o.run(e); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
	} else if err := o.run(e); err != nil {
		return err
	}
	runs := sortedRuns(snaps)
	if *metricsOut != "" {
		doc := struct {
			Seed int64     `json:"seed"`
			Runs []cellRun `json:"runs"`
		}{*seed, runs}
		if err := cliutil.WriteFile(*metricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(obs metrics written to %s: %d runs)\n", *metricsOut, len(runs))
	}
	for _, r := range runs {
		for _, a := range r.Snapshot.Alerts {
			log.Warn("watchdog alert", "alert", r.Name+": "+a.String())
		}
		if n := r.Snapshot.SuppressedAlerts; n > 0 {
			log.Warn("watchdog alert", "alert", fmt.Sprintf("%s: (%d further alerts suppressed)", r.Name, n))
		}
	}
	return nil
}

// telemetry sets o's sweep cell hook from the observability flags, leaving
// it nil when none is set. When -metrics-out or -watchdog is set, the
// returned map fills with each sweep cell's snapshot, keyed by cell label (a
// label run twice keeps its last).
func (o *options) telemetry(metricsOut string, watchdog int64, progress bool,
	traceDir string, traceSample uint64, log *slog.Logger) (map[string]*obs.Snapshot, error) {
	if metricsOut == "" && watchdog == 0 && !progress && traceDir == "" {
		return nil, nil
	}
	var snaps map[string]*obs.Snapshot
	if metricsOut != "" || watchdog != 0 {
		snaps = map[string]*obs.Snapshot{}
	}
	var wd *obs.WatchdogConfig
	if watchdog > 0 {
		wd = &obs.WatchdogConfig{Threshold: watchdog}
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	// A sweep serializes its cells' done calls and returns only after its
	// last one, so snaps and o.err need no lock.
	o.in.Cell = func(label string, net *noc.Network) func(int, int) {
		var suite *obs.Suite
		if snaps != nil {
			// A sweep samples coarsely to stay cheap.
			suite = obs.Attach(net, obs.SuiteConfig{SampleEvery: 16, Watchdog: wd})
		}
		var tr *trace.Tracer
		if traceDir != "" {
			tr = trace.Attach(net, trace.Config{SampleEvery: traceSample})
		}
		return func(done, total int) {
			if suite != nil {
				snaps[label] = suite.Snapshot()
			}
			if tr != nil && o.err == nil {
				// Labels are "workload/policy"; flatten for the filesystem.
				name := strings.NewReplacer("/", "_", " ", "_").Replace(label) + ".trace.json"
				o.err = cliutil.WriteFile(traceDir+string(os.PathSeparator)+name,
					func(w io.Writer) error { return trace.WriteChromeTrace(w, tr) })
				if o.err == nil {
					log.Info("trace written", "file", name, "events", tr.Len())
				}
			}
			if progress {
				log.Info("progress", "done", done, "total", total, "cell", label)
			}
		}
	}
	return snaps, nil
}

// cellRun is one sweep cell's entry in the -metrics-out document.
type cellRun struct {
	Name     string        `json:"name"`
	Snapshot *obs.Snapshot `json:"snapshot"`
}

// sortedRuns returns the snapshots as runs sorted by cell label.
func sortedRuns(snaps map[string]*obs.Snapshot) []cellRun {
	runs := make([]cellRun, 0, len(snaps))
	for name, snap := range snaps {
		runs = append(runs, cellRun{name, snap})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	return runs
}

// options are one invocation's settings, shared by every experiment "all"
// runs.
type options struct {
	stdout io.Writer
	in     experiments.Input
	csvDir string
	err    error // first failed CSV or trace write; later ones are skipped
}

// run runs one experiment, prints its tables and writes its CSVs into -csv,
// reporting each path. After a failed write it writes nothing more, and run
// returns the error.
func (o *options) run(e experiments.Experiment) error {
	res, err := e.Run(context.Background(), o.in)
	fmt.Fprint(o.stdout, res.Rendered)
	for _, f := range res.CSV {
		if o.csvDir == "" || o.err != nil {
			break
		}
		path := o.csvDir + string(os.PathSeparator) + f.Name
		o.err = cliutil.WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, f.Content)
			return err
		})
		if o.err == nil {
			fmt.Fprintf(o.stdout, "(csv written to %s)\n", path)
		}
	}
	if err != nil {
		return err
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

func usage(fs *flag.FlagSet) {
	var all, solo []string
	for _, e := range experiments.Table {
		if e.Solo {
			solo = append(solo, e.Name)
		} else {
			all = append(all, e.Name)
		}
	}
	fmt.Fprintf(fs.Output(), `usage: experiments [flags] <experiment>

experiments, in the order "all" runs them:
%s
kept out of "all" (views of another experiment, or machine-dependent):
%s
flags:
`, wrap(all), wrap(solo))
	fs.PrintDefaults()
}

// wrap lays names out in indented lines of at most 72 columns.
func wrap(names []string) string {
	out, line := "", " "
	for _, n := range names {
		if len(line) > 1 && len(line)+1+len(n) > 72 {
			out, line = out+line+"\n", " "
		}
		line += " " + n
	}
	return out + line + "\n"
}

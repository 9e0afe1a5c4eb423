// Package cmdline is the run setup the simulation commands share: a command's
// flag set with the logging flags, the profiling flags (-cpuprofile,
// -memprofile, -pprof) and the "seed: N" line, and the observability flags
// whose instruments a command attaches to its network and reports.
//
// It is apart from cliutil because only commands import it: it links
// net/http/pprof, whose handlers -pprof serves, and the instrument packages
// obs and trace. internal/serve and internal/experiments import cliutil for
// its validation vocabulary; a binary that embeds the daemon should not carry
// the profiling server, and a library layer carries no instruments (make
// layering).
package cmdline

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
)

// Command is one command's flag set together with its run-setup flags.
type Command struct {
	*flag.FlagSet
	prog                   string
	log                    cliutil.LogConfig
	cpuProfile, memProfile string
	pprofAddr              string
}

// New returns prog's flag set, which reports parse errors instead of exiting,
// with the run-setup flags registered.
func New(prog string) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(prog, flag.ContinueOnError), prog: prog}
	cliutil.AddLogFlags(c.FlagSet, &c.log)
	c.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	c.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	c.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return c
}

// Parse parses args. A malformed flag comes back as a cliutil.UsageError, -h
// as flag.ErrHelp; the flag package has printed the usage for both.
func (c *Command) Parse(args []string) error {
	err := c.FlagSet.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return cliutil.UsageError{Err: err}
	}
	return err
}

// Start finishes the run setup once the command has recorded its own flag
// constraints on chk. It validates the logging flags too, builds the stderr
// logger whose records carry corr_id <prog>[-<what>]-<pid>-<seed> (one ID per
// invocation: interleaved JSON logs of a batch of runs separate cleanly),
// starts the profilers and prints "seed: N" on stdout. The caller defers
// stop, which ends the profiles.
func (c *Command) Start(chk *cliutil.Check, what string, seed int64, stdout io.Writer) (log *slog.Logger, stop func(), err error) {
	c.log.Validate(chk)
	if err := chk.Err(); err != nil {
		return nil, nil, cliutil.UsageError{Err: err}
	}
	id := c.prog
	if what != "" {
		id += "-" + what
	}
	log = c.log.Logger(os.Stderr).With("corr_id", fmt.Sprintf("%s-%d-%d", id, os.Getpid(), seed))
	if stop, err = c.startProfiling(); err != nil {
		return nil, nil, err
	}
	cliutil.PrintSeed(stdout, seed)
	return log, stop, nil
}

// startProfiling starts the profilers the flags ask for; the pprof server
// lives as long as the process. stop ends the CPU profile and writes the heap
// profile, after a GC so it shows live memory, not transient garbage.
func (c *Command) startProfiling() (stop func(), err error) {
	var cpuFile *os.File
	if c.cpuProfile != "" {
		if cpuFile, err = os.Create(c.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", c.prog, err)
			}
		}()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: cpu profile: %v\n", c.prog, err)
			}
		}
		if c.memProfile != "" {
			runtime.GC()
			if err := cliutil.WriteFile(c.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: heap profile: %v\n", c.prog, err)
			}
		}
	}, nil
}

// ObsFlags are the -metrics-out and -watchdog flags of a simulation command,
// with how the command samples and prints its obs report: the commands'
// reports differ in these places only.
type ObsFlags struct {
	MetricsOut string
	Watchdog   int64

	SampleEvery int64  // collector sampling period in cycles
	Indent      string // prefix of every report line
	InFlight    bool   // end the totals line with the in-flight count
	LatencyNote string // appended to the latency line
}

// AddObsFlags registers -metrics-out and -watchdog on fs into o, whose layout
// the caller has set, and returns o.
func AddObsFlags(fs *flag.FlagSet, o *ObsFlags) *ObsFlags {
	fs.StringVar(&o.MetricsOut, "metrics-out", "",
		"write per-router/per-port obs counters (JSON) to this file")
	fs.Int64Var(&o.Watchdog, "watchdog", 0,
		"flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	return o
}

// Validate records flag violations on c.
func (o *ObsFlags) Validate(c *cliutil.Check) { c.NonNegative("-watchdog", o.Watchdog) }

// Attach attaches the obs suite the flags ask for to net and returns it, or
// returns nil when neither flag is set. Watchdog alerts are logged as
// warnings as they fire.
func (o *ObsFlags) Attach(net *noc.Network, log *slog.Logger) *obs.Suite {
	if o.MetricsOut == "" && o.Watchdog <= 0 {
		return nil
	}
	cfg := obs.SuiteConfig{SampleEvery: o.SampleEvery}
	if o.Watchdog > 0 {
		cfg.Watchdog = &obs.WatchdogConfig{
			Threshold: o.Watchdog,
			OnAlert: func(a obs.Alert) {
				log.Warn("watchdog alert", "kind", string(a.Kind), "alert", a.String())
			},
		}
	}
	return obs.Attach(net, cfg)
}

// Report prints the obs summary of suite on w and writes its JSON snapshot,
// stamped with seed, to -metrics-out. A nil suite reports nothing.
func (o *ObsFlags) Report(w io.Writer, suite *obs.Suite, seed int64) error {
	if suite == nil {
		return nil
	}
	in := o.Indent
	snap := suite.Snapshot()
	snap.Seed = seed
	fmt.Fprintf(w, "%sobs: %d grants, %d blocked port-cycles, max head age %d",
		in, snap.TotalGrants(), snap.TotalBlockedCycles(), snap.MaxHeadAge())
	if o.InFlight {
		fmt.Fprintf(w, ", %d in flight", snap.InFlight)
	}
	fmt.Fprintln(w)
	if snap.Delivered > 0 {
		fmt.Fprintf(w, "%sobs: latency p50 %.0f, p95 %.0f, p99 %.0f%s\n",
			in, snap.LatencyP50, snap.LatencyP95, snap.LatencyP99, o.LatencyNote)
	}
	if wd := suite.Watchdog; wd != nil && wd.Tripped() {
		fmt.Fprintf(w, "%swatchdog: %d alerts\n%s", in, len(wd.Alerts()), wd.Summary())
	}
	if o.MetricsOut == "" {
		return nil
	}
	if err := cliutil.WriteFile(o.MetricsOut, snap.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s(obs metrics written to %s)\n", in, o.MetricsOut)
	return nil
}

// TraceFlags are the message-tracer flags of a command. AddTraceFlags
// registers the full set; a command may instead register its own subset into
// the exported fields, and its report then prints the summary line without
// the sampling period and unindented.
type TraceFlags struct {
	On       bool
	Out, CSV string
	Sample   uint64

	indent     string
	showSample bool
}

// AddTraceFlags registers -trace, -trace-out, -trace-csv and -trace-sample
// (default sample, sampleNote appended to its help) on fs for a command whose
// trace report lines start with indent.
func AddTraceFlags(fs *flag.FlagSet, sample uint64, sampleNote, indent string) *TraceFlags {
	t := &TraceFlags{indent: indent, showSample: true}
	fs.BoolVar(&t.On, "trace", false,
		"attach the per-message lifecycle tracer and print a latency breakdown")
	fs.StringVar(&t.Out, "trace-out", "",
		"write the trace as Chrome/Perfetto JSON to this file (implies -trace)")
	fs.StringVar(&t.CSV, "trace-csv", "",
		"write the trace as compact CSV to this file (implies -trace)")
	fs.Uint64Var(&t.Sample, "trace-sample", sample, "trace only every Nth message"+sampleNote)
	return t
}

// Validate records flag violations on c.
func (t *TraceFlags) Validate(c *cliutil.Check) { c.AtLeastU("-trace-sample", t.Sample, 1) }

// Attach attaches the tracer the flags ask for to net and returns it, or
// returns nil when none is asked for: -trace-out and -trace-csv imply -trace.
func (t *TraceFlags) Attach(net *noc.Network) *trace.Tracer {
	if !t.On && t.Out == "" && t.CSV == "" {
		return nil
	}
	return trace.Attach(net, trace.Config{SampleEvery: t.Sample})
}

// Report prints the latency breakdown of tr on w and writes the exports the
// flags ask for. A nil tr reports nothing.
func (t *TraceFlags) Report(w io.Writer, tr *trace.Tracer) error {
	if tr == nil {
		return nil
	}
	fmt.Fprintf(w, "%strace: %d events retained (%d recorded, %d evicted)",
		t.indent, tr.Len(), tr.Recorded(), tr.Dropped())
	if t.showSample {
		fmt.Fprintf(w, ", sampling every %d msgs", tr.SampleEvery())
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Analyze(tr).Render())
	for _, e := range []struct {
		path, hint string
		export     func(io.Writer, *trace.Tracer) error
	}{
		{t.Out, "; load in https://ui.perfetto.dev or chrome://tracing", trace.WriteChromeTrace},
		{t.CSV, "", trace.WriteCSV},
	} {
		if e.path == "" {
			continue
		}
		if err := cliutil.WriteFile(e.path, func(f io.Writer) error { return e.export(f, tr) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s(trace written to %s%s)\n", t.indent, e.path, e.hint)
	}
	return nil
}

package cliutil

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
	"mlnoc/internal/xrand"
)

// WriteFile creates path and writes it, buffered, through write. It returns
// the first error of the write, the flush and the close, so a command reports
// an output file as written only once every byte has reached it.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ClassicPolicy builds one of the paper's classic arbiters by its CLI name:
// random, round-robin (rr), islip, fifo, probdist or global-age. seed seeds
// the two randomized ones. Any other name is a UsageError.
func ClassicPolicy(name string, seed int64) (noc.Policy, error) {
	switch name {
	case "random":
		return arb.NewRandom(xrand.New(seed)), nil
	case "round-robin", "rr":
		return arb.NewRoundRobin(), nil
	case "islip":
		return arb.NewISLIP(2), nil
	case "fifo":
		return arb.NewFIFO(), nil
	case "probdist":
		return arb.NewProbDist(xrand.New(seed)), nil
	case "global-age":
		return arb.NewGlobalAge(), nil
	}
	return nil, Usagef("unknown policy %q", name)
}

// LoadAgent reads a network saved by nn.Save and wraps it as an
// evaluation-only agent for spec; specName names the spec when the network's
// input width does not match it.
func LoadAgent(path string, spec *core.StateSpec, specName string, seed int64) (*core.Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		return nil, err
	}
	if net.InputSize() != spec.InputSize() {
		return nil, fmt.Errorf("network input %d does not match the %s spec (%d)",
			net.InputSize(), specName, spec.InputSize())
	}
	return core.NewAgentWithNet(spec, net, seed), nil
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
func (o *ObsFlags) Validate(c *Check) { c.NonNegative("-watchdog", o.Watchdog) }

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
	if err := WriteFile(o.MetricsOut, snap.WriteJSON); err != nil {
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
func (t *TraceFlags) Validate(c *Check) { c.AtLeastU("-trace-sample", t.Sample, 1) }

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
		if err := WriteFile(e.path, func(f io.Writer) error { return e.export(f, tr) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s(trace written to %s%s)\n", t.indent, e.path, e.hint)
	}
	return nil
}

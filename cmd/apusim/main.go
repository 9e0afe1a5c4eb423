// Command apusim executes APU-SynFull workloads on the paper's CPU+GPU chip
// model under a chosen arbitration policy and reports program execution times
// and NoC statistics.
//
//	apusim -model bfs -policy rl-inspired
//	apusim -mix 2L2H -policy global-age -opscale 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"mlnoc/internal/apu"
	"mlnoc/internal/arb"
	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/prof"
	"mlnoc/internal/synfull"
	"mlnoc/internal/trace"
	"mlnoc/internal/xrand"
)

func main() {
	model := flag.String("model", "bfs", "workload model (run four copies, one per quadrant)")
	mix := flag.String("mix", "", `mixed workload spec like "2L2H" (overrides -model)`)
	policy := flag.String("policy", "rl-inspired",
		"policy: random, round-robin, islip, fifo, probdist, global-age, rl-inspired, rl-inspired-we, rl-inspired-no-port, rl-inspired-no-msgtype")
	opscale := flag.Float64("opscale", 0.25, "workload length multiplier")
	quadSide := flag.Int("quadside", 4, "quadrant side in tiles (chip is 2x2 quadrants)")
	bufcap := flag.Int("bufcap", 0, "router buffer capacity per VC (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	nnPath := flag.String("nn", "", "run a saved APU agent network (gob) as the policy")
	metricsOut := flag.String("metrics-out", "",
		"write per-router/per-port obs counters (JSON) to this file")
	watchdog := flag.Int64("watchdog", 0,
		"flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	faults := flag.Float64("faults", 0,
		"fraction of NoC links to kill a third into the programs (0..1, connectivity-preserving)")
	faultSeed := flag.Int64("fault-seed", 0, "fault scenario seed (0 = use -seed)")
	traceOn := flag.Bool("trace", false,
		"attach the per-message lifecycle tracer and print a latency breakdown")
	traceOut := flag.String("trace-out", "",
		"write the trace as Chrome/Perfetto JSON to this file (implies -trace)")
	traceCSV := flag.String("trace-csv", "",
		"write the trace as compact CSV to this file (implies -trace)")
	traceSample := flag.Uint64("trace-sample", 64,
		"trace only every Nth message (APU runs generate millions)")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	profCfg := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	log := cliutil.SetupLogger("apusim", &logCfg)
	log = log.With("corr_id", fmt.Sprintf("apusim-%d-%d", os.Getpid(), *seed))
	profStop, profErr := prof.Start(*profCfg)
	if profErr != nil {
		cliutil.Fatal("apusim", "%v", profErr)
	}
	defer profStop()
	var check cliutil.Check
	check.PositiveF("-opscale", *opscale)
	check.AtLeast("-quadside", int64(*quadSide), 3)
	check.NonNegative("-bufcap", int64(*bufcap))
	check.NonNegative("-watchdog", *watchdog)
	check.Unit("-faults", *faults)
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.Exit("apusim")
	cliutil.PrintSeed(os.Stdout, *seed)

	var models [4]*synfull.Model
	if *mix != "" {
		var low, high int
		if _, err := fmt.Sscanf(*mix, "%dL%dH", &low, &high); err != nil {
			fmt.Fprintf(os.Stderr, "bad -mix %q: %v\n", *mix, err)
			os.Exit(2)
		}
		ms, err := synfull.Mix(low, high)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		copy(models[:], ms)
	} else {
		m, err := synfull.ByName(*model)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		models = apu.Homogeneous(m)
	}

	var p noc.Policy
	var err error
	if *nnPath != "" {
		p, err = loadAgent(*nnPath, *seed)
	} else {
		p, err = makePolicy(*policy, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	runCfg := apu.RunnerConfig{OpScale: *opscale, Seed: *seed}
	if *faults > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		killAt := int64(8000 * *opscale)
		if killAt < 1 {
			killAt = 1
		}
		runCfg.Faults = &fault.Spec{
			KillFraction: *faults,
			KillAt:       killAt,
			Seed:         fseed,
		}
	}
	if *metricsOut != "" || *watchdog > 0 {
		cfg := &obs.SuiteConfig{SampleEvery: 4}
		if *watchdog > 0 {
			cfg.Watchdog = &obs.WatchdogConfig{
				MaxHeadAge:     *watchdog,
				LivelockWindow: *watchdog,
				OnAlert: func(a obs.Alert) {
					log.Warn("watchdog alert", "kind", string(a.Kind), "alert", a.String())
				},
			}
		}
		runCfg.Obs = cfg
	}
	if *traceOn || *traceOut != "" || *traceCSV != "" {
		runCfg.Trace = &trace.Config{SampleEvery: *traceSample}
	}

	res := apu.RunWorkload(apu.Config{QuadSide: *quadSide, BufferCap: *bufcap}, p, models, runCfg)
	if res.Obs != nil {
		reportObs(res.Obs, *metricsOut, *seed)
	}
	if res.Trace != nil {
		reportTrace(res.Trace, *traceOut, *traceCSV)
	}
	if !res.Finished {
		fmt.Fprintf(os.Stderr, "workload did not finish within the cycle budget\n")
		os.Exit(1)
	}
	fmt.Printf("policy=%s models=[%s %s %s %s]\n", p.Name(),
		models[0].Name, models[1].Name, models[2].Name, models[3].Name)
	fmt.Printf("  completion per quadrant: %v\n", res.Completion)
	fmt.Printf("  avg execution time:  %.0f cycles\n", res.Avg)
	fmt.Printf("  tail execution time: %.0f cycles\n", res.Tail)
	fmt.Printf("  avg NoC message latency: %.2f cycles\n", res.AvgLatency)
	if res.Faults != nil {
		fmt.Printf("  faults: %d links killed, %d downtime cycles, %d requeued, %d reroutes, %d unreachable\n",
			res.Faults.LinkKills, res.Faults.DowntimeCycles, res.Faults.Requeued,
			res.Faults.Reroutes, res.Faults.Unreachable)
	}
}

// reportObs prints the observability summary and writes the JSON snapshot.
func reportObs(suite *obs.Suite, metricsOut string, seed int64) {
	snap := suite.Snapshot()
	snap.Seed = seed
	fmt.Printf("obs: %d grants, %d blocked port-cycles, max head age %d, %d in flight\n",
		snap.TotalGrants(), snap.TotalBlockedCycles(), snap.MaxHeadAge(), snap.InFlight)
	if snap.Delivered > 0 {
		fmt.Printf("obs: latency p50 %.0f, p95 %.0f, p99 %.0f\n",
			snap.LatencyP50, snap.LatencyP95, snap.LatencyP99)
	}
	if w := suite.Watchdog; w != nil && w.Tripped() {
		fmt.Printf("watchdog: %d alerts\n%s", len(w.Alerts()), w.Summary())
	}
	if metricsOut == "" {
		return
	}
	f, err := os.Create(metricsOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("(obs metrics written to %s)\n", metricsOut)
}

// reportTrace prints the latency breakdown of the traced run and writes the
// requested export files. The trace spans the whole program execution.
func reportTrace(tr *trace.Tracer, jsonOut, csvOut string) {
	fmt.Printf("trace: %d events retained (%d recorded, %d evicted), sampling every %d msgs\n",
		tr.Len(), tr.Recorded(), tr.Dropped(), tr.SampleEvery())
	fmt.Print(trace.Analyze(tr).Render())
	write := func(path string, export func(f *os.File) error, hint string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := export(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(trace written to %s%s)\n", path, hint)
	}
	write(jsonOut, func(f *os.File) error { return trace.WriteChromeTrace(f, tr) },
		"; load in https://ui.perfetto.dev or chrome://tracing")
	write(csvOut, func(f *os.File) error { return trace.WriteCSV(f, tr) }, "")
}

func makePolicy(name string, seed int64) (noc.Policy, error) {
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
	case "rl-inspired":
		return core.NewRLInspiredAPU(), nil
	case "rl-inspired-we":
		return core.NewRLInspiredAPUPaper(), nil
	case "rl-inspired-no-port":
		return &core.RLInspiredAPU{InvertNorthSouth: true, DefeaturePort: true}, nil
	case "rl-inspired-no-msgtype":
		return &core.RLInspiredAPU{InvertNorthSouth: true, DefeatureMsgType: true}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// loadAgent wraps a saved APU-spec network as an evaluation-only policy.
func loadAgent(path string, seed int64) (noc.Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		return nil, err
	}
	spec := core.APUSpec()
	if net.InputSize() != spec.InputSize() {
		return nil, fmt.Errorf("network input %d does not match the APU spec (%d)",
			net.InputSize(), spec.InputSize())
	}
	return core.NewAgentWithNet(spec, net, seed), nil
}

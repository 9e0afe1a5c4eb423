// Command trainarb trains the deep Q-learning arbitration agent on a mesh
// under uniform-random traffic (the paper's Section 3.2 setup), reports the
// training curve, the agent's oldest-first accuracy, and the weight heatmap,
// and optionally saves the trained network.
//
//	trainarb -size 4 -cycles 40000 -out agent.gob
//
// It also implements the paper's offline workflow (Fig. 2): record a dataset
// of router states under a behaviour policy, then train from it offline.
//
//	trainarb -record states.gob -behavior round-robin -cycles 20000
//	trainarb -offline states.gob -epochs 20 -out agent.gob
//
// A dataset file holds each state as the (index, value) list of its non-zero
// elements (rl.Dataset); -offline validates every record on load. Files
// recorded when states were stored as dense vectors do not load: record anew.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/noc"
	"mlnoc/internal/prof"
	"mlnoc/internal/rl"
	"mlnoc/internal/telemetry"
	"mlnoc/internal/trace"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
	"mlnoc/internal/xrand"
)

func main() {
	size := flag.Int("size", 4, "mesh edge size")
	cycles := flag.Int64("cycles", 40000, "training cycles")
	rate := flag.Float64("rate", 0, "injection rate (0 = experiment default)")
	hidden := flag.Int("hidden", 15, "hidden layer width")
	lr := flag.Float64("lr", 0, "learning rate (0 = harness default)")
	batch := flag.Int("batch", 0, "replay batch size per cycle (0 = harness default)")
	eps := flag.Float64("eps", 0.001, "exploration rate floor")
	gamma := flag.Float64("gamma", 0, "discount factor (0 = default)")
	replay := flag.Int("replay", 0, "replay capacity (0 = default)")
	sync := flag.Int64("sync", 0, "target sync interval in steps (0 = default)")
	reward := flag.String("reward", "global_age", "reward: global_age, acc_latency, link_util")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "save trained network to this file (gob)")
	evalCycles := flag.Int64("eval", 6000, "evaluation cycles after training")
	evalRate := flag.Float64("evalrate", 0, "evaluation injection rate (0 = training rate)")
	record := flag.String("record", "", "record a dataset to this file instead of training")
	behavior := flag.String("behavior", "round-robin", "behaviour policy while recording")
	offline := flag.String("offline", "", "train offline from this dataset file")
	epochs := flag.Int("epochs", 20, "offline training epochs over the dataset")
	apuMode := flag.Bool("apu", false, "train the 504-input APU agent (on the bfs model) instead of a mesh agent")
	telemetryOut := flag.String("telemetry-out", "",
		"write training telemetry (training_curves.csv, per-epoch weight-heatmap CSVs) into this directory")
	heatmapEvery := flag.Int("heatmap-every", 0,
		"dump a weight-heatmap CSV every N epochs (0 = 4 dumps per run; needs -telemetry-out)")
	traceOn := flag.Bool("trace", false,
		"trace message lifecycles during training and print a latency breakdown")
	traceOut := flag.String("trace-out", "",
		"write the training-run trace as Chrome/Perfetto JSON to this file (implies -trace)")
	traceSample := flag.Uint64("trace-sample", 16, "trace only every Nth message")
	quantEval := flag.Bool("quant-eval", false,
		"after training, compile the frozen net to the INT8 engine and report action agreement, Q-value error and latency deltas")
	quantMinAgree := flag.Float64("quant-min-agree", 0,
		"with -quant-eval: exit nonzero when INT8/float action agreement falls below this fraction (0 = report only)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /debug/pprof on this address for the lifetime of the run (e.g. :9100)")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	profCfg := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	fail := func(format string, args ...any) {
		cliutil.Fatal("trainarb", format, args...)
	}
	log := cliutil.SetupLogger("trainarb", &logCfg)
	// One correlation ID per invocation, on every record: a multi-run sweep's
	// interleaved JSON logs separate cleanly by corr_id.
	log = log.With("corr_id", fmt.Sprintf("trainarb-%d-%d", os.Getpid(), *seed))
	profStop, err := prof.Start(*profCfg)
	if err != nil {
		fail("%v", err)
	}
	defer profStop()
	var check cliutil.Check
	check.Positive("-size", int64(*size))
	check.Positive("-cycles", *cycles)
	check.Unit("-rate", *rate)
	check.NonNegative("-eval", *evalCycles)
	check.NonNegative("-heatmap-every", int64(*heatmapEvery))
	check.AtLeastU("-trace-sample", *traceSample, 1)
	check.Exit("trainarb")
	cliutil.PrintSeed(os.Stdout, *seed)

	if *apuMode {
		if err := trainAPU(*cycles, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *record != "" {
		if err := recordDataset(*record, *behavior, *size, *rate, *cycles, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *offline != "" {
		if err := trainOffline(*offline, *size, *hidden, *epochs, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var kind rl.RewardKind
	switch *reward {
	case "global_age":
		kind = rl.RewardGlobalAge
	case "acc_latency":
		kind = rl.RewardAccLatency
	case "link_util":
		kind = rl.RewardLinkUtil
	default:
		fmt.Fprintf(os.Stderr, "unknown reward %q\n", *reward)
		os.Exit(2)
	}

	cfg := core.MeshTrainConfig{
		Width:       *size,
		Height:      *size,
		Rate:        *rate,
		Hidden:      *hidden,
		Epochs:      int(*cycles / 1000),
		EpochCycles: 1000,
		Reward:      kind,
		Seed:        *seed,
		DQL: rl.DQLConfig{
			LR:        *lr,
			BatchSize: *batch,
			Epsilon:   *eps,
			Gamma:     *gamma,
			ReplayCap: *replay,
			SyncEvery: *sync,
		},
	}
	cfg.Telemetry = buildTelemetry(*telemetryOut, *heatmapEvery, cfg.Epochs,
		*traceOn || *traceOut != "", *traceSample, fail)
	// Epoch progress goes through slog live (not printed after the fact), so
	// -log-format json turns a long run into machine-parseable progress.
	if cfg.Telemetry == nil {
		cfg.Telemetry = &core.TrainTelemetry{BatchEvery: 10}
	}
	cfg.Telemetry.OnEpoch = func(epoch int, avg float64) {
		log.Info("epoch complete", "epoch", epoch, "epochs", cfg.Epochs,
			"avg_latency", fmt.Sprintf("%.2f", avg))
	}
	if *metricsAddr != "" {
		_, stop, err := startMetricsSidecar(*metricsAddr, telemetry.Default, log)
		if err != nil {
			fail("%v", err)
		}
		defer stop()
		newTrainMetrics(telemetry.Default).install(cfg.Telemetry)
	}
	log.Info("training mesh agent", "size", fmt.Sprintf("%dx%d", *size, *size),
		"cycles", *cycles, "reward", *reward)
	tr := core.TrainMesh(cfg)
	fmt.Printf("decisions=%d explored=%.4f replay=%d steps=%d\n",
		tr.Agent.Decisions(), tr.Agent.ExplorationFraction(),
		tr.Agent.DQL.Replay.Len(), tr.Agent.DQL.Steps())
	reportTelemetry(tr, *telemetryOut, *traceOut, fail)

	tr.Agent.Freeze()
	h := core.NewHeatmap(tr.Spec, tr.Agent.Net())
	fmt.Print(viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))

	// Oldest-first accuracy: how often the frozen net picks the globally
	// oldest candidate, measured by shadowing a global-age evaluation run.
	if *evalRate > 0 {
		cfg.Rate = *evalRate
	}
	probe := &oldestProbe{inner: tr.Agent}
	res := core.EvaluateMeshPolicy(cfg, probe, 1000, *evalCycles)
	fmt.Printf("frozen NN eval: avg latency %.2f (oldest-pick accuracy %.1f%% of %d decisions)\n",
		res.AvgLatency, 100*probe.accuracy(), probe.total)

	for _, pol := range []noc.Policy{arb.NewFIFO(), arb.NewGlobalAge(), core.NewRLInspiredMesh4x4()} {
		pr := &oldestProbe{inner: pol}
		r := core.EvaluateMeshPolicy(cfg, pr, 1000, *evalCycles)
		fmt.Printf("%-16s avg latency %.2f (oldest accuracy %.1f%%)\n",
			pol.Name(), r.AvgLatency, 100*pr.accuracy())
	}

	if *quantEval {
		sc := experiments.Quick()
		sc.Seed = *seed
		sc.WarmupCycles = 1000
		sc.MeasureCycles = *evalCycles
		if sc.MeasureCycles < 1000 {
			sc.MeasureCycles = 1000
		}
		qr := experiments.QuantEval(tr.Agent, cfg, sc)
		fmt.Print(qr.Render())
		if *quantMinAgree > 0 && qr.Agreement < *quantMinAgree {
			fmt.Fprintf(os.Stderr,
				"trainarb: INT8 action agreement %.3f below required %.3f\n",
				qr.Agreement, *quantMinAgree)
			os.Exit(1)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tr.Agent.Net().Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved network to %s\n", *out)
	}
}

// buildTelemetry assembles the TrainMesh telemetry config from the CLI
// flags, or returns nil when no introspection was requested.
func buildTelemetry(dir string, heatmapEvery, epochs int, traceOn bool, sample uint64,
	fail func(string, ...any)) *core.TrainTelemetry {
	if dir == "" && !traceOn {
		return nil
	}
	// One curve point per 10 training batches keeps training_curves.csv a
	// few thousand rows on default-length runs.
	tel := &core.TrainTelemetry{BatchEvery: 10}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail("%v", err)
		}
		every := heatmapEvery
		if every <= 0 {
			every = epochs / 4
			if every < 1 {
				every = 1
			}
		}
		tel.HeatmapEvery = every
		tel.HeatmapSink = func(epoch int, h *core.Heatmap) {
			// Signed weights, not magnitudes: the CSV is the Fig. 4/7 raw
			// artifact, and sign structure is what interpretation reads.
			csv := viz.MatrixCSV("feature", h.RowLabels, h.ColLabels, h.Signed)
			path := filepath.Join(dir, fmt.Sprintf("weights_epoch%03d.csv", epoch))
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fail("%v", err)
			}
		}
	}
	if traceOn {
		tel.Trace = &trace.Config{SampleEvery: sample}
	}
	return tel
}

// reportTelemetry prints the training-telemetry summary and writes the
// requested artifacts.
func reportTelemetry(tr *core.TrainResult, dir, traceOut string, fail func(string, ...any)) {
	if tt := tr.TrainTrace; tt != nil && tt.Points() > 0 {
		last := tt.Points() - 1
		fmt.Printf("telemetry: %d curve points, %d target syncs, final loss %.5f, final epsilon %.4f, replay fill %.0f%%\n",
			tt.Points(), len(tt.SyncSteps), tt.Loss[last], tt.Epsilon[last], 100*tt.ReplayFill[last])
		if dir != "" {
			var b strings.Builder
			b.WriteString("step,loss,replay_fill,epsilon\n")
			for i := range tt.Steps {
				fmt.Fprintf(&b, "%d,%.6f,%.4f,%.6f\n",
					tt.Steps[i], tt.Loss[i], tt.ReplayFill[i], tt.Epsilon[i])
			}
			if err := os.WriteFile(filepath.Join(dir, "training_curves.csv"),
				[]byte(b.String()), 0o644); err != nil {
				fail("%v", err)
			}
			var sb strings.Builder
			sb.WriteString("step\n")
			for _, s := range tt.SyncSteps {
				fmt.Fprintf(&sb, "%d\n", s)
			}
			if err := os.WriteFile(filepath.Join(dir, "target_syncs.csv"),
				[]byte(sb.String()), 0o644); err != nil {
				fail("%v", err)
			}
			fmt.Printf("telemetry written to %s\n", dir)
		}
	}
	if tr.Tracer != nil {
		fmt.Printf("trace: %d events retained (%d recorded, %d evicted)\n",
			tr.Tracer.Len(), tr.Tracer.Recorded(), tr.Tracer.Dropped())
		fmt.Print(trace.Analyze(tr.Tracer).Render())
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				fail("%v", err)
			}
			if err := trace.WriteChromeTrace(f, tr.Tracer); err != nil {
				f.Close()
				fail("%v", err)
			}
			if err := f.Close(); err != nil {
				fail("%v", err)
			}
			fmt.Printf("(trace written to %s; load in https://ui.perfetto.dev or chrome://tracing)\n", traceOut)
		}
	}
}

// oldestProbe wraps a policy and counts how often it grants the candidate
// with the largest global age.
type oldestProbe struct {
	inner noc.Policy
	hits  int64
	total int64
}

func (p *oldestProbe) Name() string { return p.inner.Name() + "+probe" }

func (p *oldestProbe) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	choice := p.inner.Select(ctx, cands)
	oldest := cands[0].Msg.InjectCycle
	for _, c := range cands[1:] {
		if c.Msg.InjectCycle < oldest {
			oldest = c.Msg.InjectCycle
		}
	}
	p.total++
	if cands[choice].Msg.InjectCycle == oldest {
		p.hits++
	}
	return choice
}

func (p *oldestProbe) accuracy() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.total)
}

// recordDataset runs the Fig. 2 data-collection phase: simulate the mesh
// under a behaviour policy and dump the <s,a,r,s'> tuples.
func recordDataset(path, behavior string, size int, rate float64, cycles, seed int64) error {
	var beh noc.Policy
	switch behavior {
	case "round-robin", "rr":
		beh = arb.NewRoundRobin()
	case "fifo":
		beh = arb.NewFIFO()
	case "random":
		beh = arb.NewRandom(xrand.New(seed))
	case "global-age":
		beh = arb.NewGlobalAge()
	default:
		return fmt.Errorf("unknown behaviour policy %q", behavior)
	}
	spec := core.MeshSpec(3)
	rec := core.NewRecorder(spec, beh)
	if rate == 0 {
		rate = 0.23
	}
	net, cores := noc.BuildMeshCores(noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 1})
	net.SetPolicy(rec)
	net.OnCycle = rec.OnCycle
	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate,
		xrand.New(seed+1))
	in.Classes = 3
	for i := int64(0); i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	rec.Flush()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.Data.Save(f); err != nil {
		return err
	}
	fmt.Printf("recorded %d experiences under %s to %s\n", rec.Data.Len(), beh.Name(), path)
	return nil
}

// trainOffline trains a fresh agent network from a recorded dataset.
func trainOffline(path string, size, hidden, epochs int, seed int64, out string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	data, err := rl.LoadDataset(f)
	f.Close()
	if err != nil {
		return err
	}
	spec := core.MeshSpec(3)
	if spec.InputSize() != data.StateSize {
		return fmt.Errorf("dataset state size %d does not match the mesh spec %d",
			data.StateSize, spec.InputSize())
	}
	agent := core.NewAgent(spec, core.AgentConfig{
		Hidden: hidden,
		Seed:   seed,
		DQL:    rl.DQLConfig{LR: 0.05, Gamma: 0.1, SyncEvery: 2000},
	})
	fmt.Printf("offline training on %d experiences for %d epochs...\n", data.Len(), epochs)
	td := agent.DQL.TrainOffline(xrand.New(seed+9), data, epochs)
	fmt.Printf("final epoch mean TD error: %.5f\n", td)
	agent.Freeze()
	h := core.NewHeatmap(spec, agent.Net())
	fmt.Print(viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))
	_ = size
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			return err
		}
		defer g.Close()
		if err := agent.Net().Save(g); err != nil {
			return err
		}
		fmt.Printf("saved network to %s\n", out)
	}
	return nil
}

// trainAPU trains the paper's 504-input agent on the APU system and saves it.
func trainAPU(cycles, seed int64, out string) error {
	sc := experiments.Quick()
	sc.TrainCycles = cycles
	sc.Seed = seed
	fmt.Printf("training the APU agent for %d cycles on the bfs model...\n", cycles)
	agent := experiments.TrainAPU(sc)
	agent.Freeze()
	fmt.Printf("decisions: %d\n", agent.Decisions())
	fmt.Print(experiments.RenderAPUHeatmap(experiments.APUHeatmapFromAgent(agent)))
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := agent.Net().Save(f); err != nil {
			return err
		}
		fmt.Printf("saved network to %s\n", out)
	}
	return nil
}

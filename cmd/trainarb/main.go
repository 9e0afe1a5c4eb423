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
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/cmdline"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/telemetry"
	"mlnoc/internal/trace"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
	"mlnoc/internal/xrand"
)

func main() { cliutil.Main("trainarb", run) }

// epochCycles is the length of one mesh-training epoch.
const epochCycles = 1000

func run(args []string, stdout io.Writer) error {
	cmd := cmdline.New("trainarb")
	size := cmd.Int("size", 4, "mesh edge size")
	cycles := cmd.Int64("cycles", 40000, "training cycles")
	rate := cmd.Float64("rate", 0, "injection rate (0 = experiment default)")
	hidden := cmd.Int("hidden", 15, "hidden layer width")
	lr := cmd.Float64("lr", 0, "learning rate (0 = harness default)")
	batch := cmd.Int("batch", 0, "replay batch size per cycle (0 = harness default)")
	eps := cmd.Float64("eps", 0.001, "exploration rate floor")
	gamma := cmd.Float64("gamma", 0, "discount factor (0 = default)")
	replay := cmd.Int("replay", 0, "replay capacity (0 = default)")
	sync := cmd.Int64("sync", 0, "target sync interval in steps (0 = default)")
	reward := cmd.String("reward", "global_age", "reward: global_age, acc_latency, link_util")
	seed := cmd.Int64("seed", 1, "random seed")
	out := cmd.String("out", "", "save trained network to this file (gob)")
	evalCycles := cmd.Int64("eval", 6000, "evaluation cycles after training")
	evalRate := cmd.Float64("evalrate", 0, "evaluation injection rate (0 = training rate)")
	record := cmd.String("record", "", "record a dataset to this file instead of training")
	behavior := cmd.String("behavior", "round-robin", "behaviour policy while recording")
	offline := cmd.String("offline", "", "train offline from this dataset file")
	epochs := cmd.Int("epochs", 20, "offline training epochs over the dataset")
	apuMode := cmd.Bool("apu", false, "train the 504-input APU agent (on the bfs model) instead of a mesh agent")
	telemetryOut := cmd.String("telemetry-out", "",
		"write training telemetry (training_curves.csv, per-epoch weight-heatmap CSVs) into this directory")
	heatmapEvery := cmd.Int("heatmap-every", 0,
		"dump a weight-heatmap CSV every N epochs (0 = 4 dumps per run; needs -telemetry-out)")
	traceFlags := &cliutil.TraceFlags{}
	cmd.BoolVar(&traceFlags.On, "trace", false,
		"trace message lifecycles during training and print a latency breakdown")
	cmd.StringVar(&traceFlags.Out, "trace-out", "",
		"write the training-run trace as Chrome/Perfetto JSON to this file (implies -trace)")
	cmd.Uint64Var(&traceFlags.Sample, "trace-sample", 16, "trace only every Nth message")
	quantEval := cmd.Bool("quant-eval", false,
		"after training, compile the frozen net to the INT8 engine and report action agreement, Q-value error and latency deltas")
	quantMinAgree := cmd.Float64("quant-min-agree", 0,
		"with -quant-eval: exit nonzero when INT8/float action agreement falls below this fraction (0 = report only)")
	metricsAddr := cmd.String("metrics-addr", "",
		"serve /metrics and /debug/pprof on this address for the lifetime of the run (e.g. :9100)")
	if err := cmd.Parse(args); err != nil {
		return err
	}

	var check cliutil.Check
	check.AtLeast("-size", int64(*size), 2) // the injector needs two nodes
	if *apuMode || *record != "" || *offline != "" {
		check.Positive("-cycles", *cycles)
	} else {
		check.AtLeast("-cycles", *cycles, epochCycles) // mesh training runs whole epochs
	}
	check.Unit("-rate", *rate)
	check.NonNegativeF("-lr", *lr)
	check.NonNegative("-batch", int64(*batch))
	check.Unit("-eps", *eps)
	check.Unit("-gamma", *gamma)
	check.NonNegative("-replay", int64(*replay))
	check.NonNegative("-sync", *sync)
	check.NonNegative("-eval", *evalCycles)
	check.Unit("-evalrate", *evalRate)
	check.Positive("-epochs", int64(*epochs))
	check.NonNegative("-heatmap-every", int64(*heatmapEvery))
	check.Unit("-quant-min-agree", *quantMinAgree)
	traceFlags.Validate(&check)
	log, stop, err := cmd.Start(&check, "", *seed, stdout)
	if err != nil {
		return err
	}
	defer stop()

	switch {
	case *apuMode:
		return trainAPU(stdout, *cycles, *seed, *out)
	case *record != "":
		return recordDataset(stdout, *record, *behavior, *size, *rate, *cycles, *seed)
	case *offline != "":
		return trainOffline(stdout, *offline, *hidden, *epochs, *seed, *out)
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
		return cliutil.Usagef("unknown reward %q", *reward)
	}

	cfg := core.MeshTrainConfig{
		Width:       *size,
		Height:      *size,
		Rate:        *rate,
		Hidden:      *hidden,
		Epochs:      int(*cycles / epochCycles),
		EpochCycles: epochCycles,
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
	var sinkErr error
	if cfg.Telemetry, err = buildTelemetry(*telemetryOut, *heatmapEvery, cfg.Epochs,
		traceFlags.Config(), &sinkErr); err != nil {
		return err
	}
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
			return err
		}
		defer stop()
		newTrainMetrics(telemetry.Default).install(cfg.Telemetry)
	}
	log.Info("training mesh agent", "size", fmt.Sprintf("%dx%d", *size, *size),
		"cycles", *cycles, "reward", *reward)
	tr := core.TrainMesh(cfg)
	if sinkErr != nil {
		return sinkErr
	}
	fmt.Fprintf(stdout, "decisions=%d explored=%.4f replay=%d steps=%d\n",
		tr.Agent.Decisions(), tr.Agent.ExplorationFraction(),
		tr.Agent.DQL.Replay.Len(), tr.Agent.DQL.Steps())
	if err := reportTelemetry(stdout, tr, *telemetryOut, traceFlags); err != nil {
		return err
	}

	tr.Agent.Freeze()
	h := core.NewHeatmap(tr.Spec, tr.Agent.Net())
	fmt.Fprint(stdout, viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))

	// Oldest-first accuracy: how often the frozen net picks the globally
	// oldest candidate, measured by shadowing a global-age evaluation run.
	if *evalRate > 0 {
		cfg.Rate = *evalRate
	}
	probe := &oldestProbe{inner: tr.Agent}
	res := core.EvaluateMeshPolicy(cfg, probe, 1000, *evalCycles)
	fmt.Fprintf(stdout, "frozen NN eval: avg latency %.2f (oldest-pick accuracy %.1f%% of %d decisions)\n",
		res.AvgLatency, 100*probe.accuracy(), probe.total)

	for _, pol := range []noc.Policy{arb.NewFIFO(), arb.NewGlobalAge(), core.NewRLInspiredMesh4x4()} {
		pr := &oldestProbe{inner: pol}
		r := core.EvaluateMeshPolicy(cfg, pr, 1000, *evalCycles)
		fmt.Fprintf(stdout, "%-16s avg latency %.2f (oldest accuracy %.1f%%)\n",
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
		fmt.Fprint(stdout, qr.Render())
		if *quantMinAgree > 0 && qr.Agreement < *quantMinAgree {
			return fmt.Errorf("INT8 action agreement %.3f below required %.3f",
				qr.Agreement, *quantMinAgree)
		}
	}
	return saveNetwork(stdout, *out, tr.Agent)
}

// saveNetwork writes the agent's network to path, when one is given.
func saveNetwork(stdout io.Writer, path string, agent *core.Agent) error {
	if path == "" {
		return nil
	}
	if err := cliutil.WriteFile(path, agent.Net().Save); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved network to %s\n", path)
	return nil
}

// buildTelemetry assembles the TrainMesh telemetry config from the CLI
// flags, or returns nil when no introspection was requested. The first failed
// heatmap write lands in *sinkErr; later epochs write nothing.
func buildTelemetry(dir string, heatmapEvery, epochs int, traceCfg *trace.Config,
	sinkErr *error) (*core.TrainTelemetry, error) {
	if dir == "" && traceCfg == nil {
		return nil, nil
	}
	// One curve point per 10 training batches keeps training_curves.csv a
	// few thousand rows on default-length runs.
	tel := &core.TrainTelemetry{BatchEvery: 10, Trace: traceCfg}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
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
			if *sinkErr != nil {
				return
			}
			// Signed weights, not magnitudes: the CSV is the Fig. 4/7 raw
			// artifact, and sign structure is what interpretation reads.
			csv := viz.MatrixCSV("feature", h.RowLabels, h.ColLabels, h.Signed)
			*sinkErr = writeString(filepath.Join(dir, fmt.Sprintf("weights_epoch%03d.csv", epoch)), csv)
		}
	}
	return tel, nil
}

// writeString writes s to path.
func writeString(path, s string) error {
	return cliutil.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
}

// reportTelemetry prints the training-telemetry summary and writes the
// requested artifacts.
func reportTelemetry(stdout io.Writer, tr *core.TrainResult, dir string, traceFlags *cliutil.TraceFlags) error {
	if tt := tr.TrainTrace; tt != nil && tt.Points() > 0 {
		last := tt.Points() - 1
		fmt.Fprintf(stdout, "telemetry: %d curve points, %d target syncs, final loss %.5f, final epsilon %.4f, replay fill %.0f%%\n",
			tt.Points(), len(tt.SyncSteps), tt.Loss[last], tt.Epsilon[last], 100*tt.ReplayFill[last])
		if dir != "" {
			var b strings.Builder
			b.WriteString("step,loss,replay_fill,epsilon\n")
			for i := range tt.Steps {
				fmt.Fprintf(&b, "%d,%.6f,%.4f,%.6f\n",
					tt.Steps[i], tt.Loss[i], tt.ReplayFill[i], tt.Epsilon[i])
			}
			if err := writeString(filepath.Join(dir, "training_curves.csv"), b.String()); err != nil {
				return err
			}
			var sb strings.Builder
			sb.WriteString("step\n")
			for _, s := range tt.SyncSteps {
				fmt.Fprintf(&sb, "%d\n", s)
			}
			if err := writeString(filepath.Join(dir, "target_syncs.csv"), sb.String()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "telemetry written to %s\n", dir)
		}
	}
	if tr.Tracer != nil {
		return traceFlags.Report(stdout, tr.Tracer)
	}
	return nil
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
// under a behaviour policy and dump the <s,a,r,s'> tuples. The recorder only
// drives Select, so the behaviour policies are the four whose Select is the
// whole policy.
func recordDataset(stdout io.Writer, path, behavior string, size int, rate float64, cycles, seed int64) error {
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
		return cliutil.Usagef("unknown behaviour policy %q", behavior)
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
	if err := cliutil.WriteFile(path, rec.Data.Save); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d experiences under %s to %s\n", rec.Data.Len(), beh.Name(), path)
	return nil
}

// trainOffline trains a fresh agent network from a recorded dataset.
func trainOffline(stdout io.Writer, path string, hidden, epochs int, seed int64, out string) error {
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
	fmt.Fprintf(stdout, "offline training on %d experiences for %d epochs...\n", data.Len(), epochs)
	td := agent.DQL.TrainOffline(xrand.New(seed+9), data, epochs)
	fmt.Fprintf(stdout, "final epoch mean TD error: %.5f\n", td)
	agent.Freeze()
	h := core.NewHeatmap(spec, agent.Net())
	fmt.Fprint(stdout, viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))
	return saveNetwork(stdout, out, agent)
}

// trainAPU trains the paper's 504-input agent on the APU system and saves it.
func trainAPU(stdout io.Writer, cycles, seed int64, out string) error {
	sc := experiments.Quick()
	sc.TrainCycles = cycles
	sc.Seed = seed
	fmt.Fprintf(stdout, "training the APU agent for %d cycles on the bfs model...\n", cycles)
	agent, err := experiments.TrainAPUCtx(context.Background(), sc)
	if err != nil {
		return err
	}
	agent.Freeze()
	fmt.Fprintf(stdout, "decisions: %d\n", agent.Decisions())
	fmt.Fprint(stdout, experiments.RenderAPUHeatmap(experiments.APUHeatmapFromAgent(agent)))
	return saveNetwork(stdout, out, agent)
}

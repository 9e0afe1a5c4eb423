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
//	trainarb -record states.rec -behavior round-robin -cycles 20000
//	trainarb -offline states.rec -epochs 20 -out agent.gob
//
// A dataset file (rl.Dataset) holds each experience as the replay memory
// does, its states as the raw readings StateSpec.Record takes. -offline
// decodes every one under the 60-input mesh spec on load and refuses a file
// of other shapes or another format version (gob files of earlier releases
// among them): record anew.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

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
	traceFlags := &cmdline.TraceFlags{}
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

	mesh := experiments.UniformMesh(*size, 1, *seed+1)
	if *rate > 0 {
		mesh.Rate = *rate
	}
	switch {
	case *apuMode:
		return trainAPU(stdout, *cycles, *seed, *out)
	case *record != "":
		return recordDataset(stdout, *record, *behavior, mesh, *cycles, *seed)
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

	cfg := core.TrainSpec{
		Env:         mesh,
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
	tel := &curves{dir: *telemetryOut, heatmapEvery: *heatmapEvery}
	if tel.dir != "" {
		if err := os.MkdirAll(tel.dir, 0o755); err != nil {
			return err
		}
		if tel.heatmapEvery == 0 { // four dumps a run
			tel.heatmapEvery = max(cfg.Epochs/4, 1)
		}
	}
	var tracer *trace.Tracer
	cfg.Attach = func(net *noc.Network, a *core.Agent) {
		tracer = traceFlags.Attach(net)
		tel.attach(net, a)
	}
	// Epoch progress goes through slog live (not printed after the fact), so
	// -log-format json turns a long run into machine-parseable progress.
	cfg.OnEpoch = func(epoch int, avg float64) {
		log.Info("epoch complete", "epoch", epoch, "epochs", cfg.Epochs,
			"avg_latency", fmt.Sprintf("%.2f", avg))
		tel.onEpoch(epoch, avg)
	}
	if *metricsAddr != "" {
		_, stop, err := startMetricsSidecar(*metricsAddr, telemetry.Default, log)
		if err != nil {
			return err
		}
		defer stop()
		tel.metrics = newTrainMetrics(telemetry.Default)
	}
	log.Info("training mesh agent", "size", fmt.Sprintf("%dx%d", *size, *size),
		"cycles", *cycles, "reward", *reward)
	tr, err := core.Train(context.Background(), cfg)
	if err != nil {
		return err
	}
	if tel.err != nil {
		return tel.err
	}
	fmt.Fprintf(stdout, "decisions=%d explored=%.4f replay=%d steps=%d\n",
		tr.Agent.Decisions(), tr.Agent.ExplorationFraction(),
		tr.Agent.DQL.Replay.Len(), tr.Agent.DQL.Steps())
	if err := tel.report(stdout); err != nil {
		return err
	}
	if err := traceFlags.Report(stdout, tracer); err != nil {
		return err
	}

	tr.Agent.Freeze()
	h := core.NewHeatmap(tr.Spec, tr.Agent.Net())
	fmt.Fprint(stdout, viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))

	// Oldest-first accuracy: how often the frozen net picks the globally
	// oldest candidate, measured by shadowing a global-age evaluation run.
	if *evalRate > 0 {
		mesh.Rate = *evalRate
	}
	probe := &oldestProbe{inner: tr.Agent}
	res := mesh.Evaluate(probe, 1000, *evalCycles)
	fmt.Fprintf(stdout, "frozen NN eval: avg latency %.2f (oldest-pick accuracy %.1f%% of %d decisions)\n",
		res.AvgLatency, 100*probe.accuracy(), probe.total)

	for _, pol := range []noc.Policy{arb.NewFIFO(), arb.NewGlobalAge(), core.NamedRule("rl-inspired-4x4")} {
		pr := &oldestProbe{inner: pol}
		r := mesh.Evaluate(pr, 1000, *evalCycles)
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
		qr := experiments.QuantEval(tr.Agent, mesh, sc)
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

// writeString writes s to path.
func writeString(path, s string) error {
	return cliutil.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
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
// drives Select, so the behaviour policies are the classic arbiters whose
// Select is the whole policy: all of cliutil.ClassicPolicy's but the
// matcher, islip.
func recordDataset(stdout io.Writer, path, behavior string, mesh traffic.Mesh, cycles, seed int64) error {
	beh, err := cliutil.ClassicPolicy(behavior, seed)
	if _, matcher := beh.(noc.Matcher); err != nil || matcher {
		return cliutil.Usagef("unknown behaviour policy %q", behavior)
	}
	rec := core.NewRecorder(core.MeshSpec(3), beh)
	_, step := mesh.Start(rec)
	for i := int64(0); i < cycles; i++ {
		step()
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
	spec := core.MeshSpec(3)
	data, err := rl.LoadDataset(f, spec)
	f.Close()
	if err != nil {
		return err
	}
	agent := core.NewAgent(spec, core.AgentConfig{
		Hidden: hidden,
		Seed:   seed,
		DQL:    rl.DQLConfig{Gamma: 0.1},
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
	fmt.Fprintf(stdout, "training the APU agent for %d cycles on the bfs model...\n", cycles)
	sc := experiments.Quick()
	sc.TrainCycles, sc.Seed = cycles, seed
	tr, err := core.Train(context.Background(), experiments.APUTrainSpec(sc))
	if err != nil {
		return err
	}
	agent := tr.Agent
	agent.Freeze()
	fmt.Fprintf(stdout, "decisions: %d\n", agent.Decisions())
	fmt.Fprint(stdout, experiments.RenderAPUHeatmap(experiments.APUHeatmapFromAgent(agent)))
	return saveNetwork(stdout, out, agent)
}

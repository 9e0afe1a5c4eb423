package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"mlnoc/internal/apu"
	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
)

const (
	// apuModel is the workload the paper trains its APU agent on.
	apuModel = "bfs"
	// trainOpScale, trainDecay: experiments.Quick()'s OpScale, and half of
	// its TrainCycles as TrainAPUCtx sets EpsDecayCycles.
	trainOpScale = 0.25
	trainDecay   = 25_000
	probeEvery   = 64  // one Select in probeEvery is probed for build_state
	probeKeep    = 256 // state vectors captured for the direct nn timings
)

// apuInferConfig sizes apu_infer. OpScale 0.01 makes one episode about 40 ms
// of host time under the agent on the reference host (437 simulated cycles,
// 1 802 decisions), short enough that a run holds minWindows episodes; the
// warm-up ops pay for growing the heap and faulting it in.
type apuInferConfig struct {
	OpScale   float64
	WarmupOps int
}

var apuInfer = apuInferConfig{OpScale: 0.01, WarmupOps: 3}

// inferLap is the lap length of an apu_infer episode in cycles, about 2 ms.
// All episodes of a run are the same work cycle for cycle, so lap j of one is
// lap j of every other, and the harness can take each lap at its fastest.
const inferLap = 25

// apuInferSeed is the one seed apu_infer is built from, whatever -seed says.
// The length of a single short episode swings by +-15% with the seed (419 to
// 580 cycles over seeds 1..10), more than the bound on throughput, so an
// episode drawn from -seed would make the op a different amount of work on
// every run; the other workloads average over enough traffic not to care.
const apuInferSeed = 17

// apuTrainConfig sizes apu_train. The warm-up fills the 16 000-entry replay
// ring: until it is full every decision allocates a 4 KB state vector and the
// workload is not in steady state (Finish fails the run if the ring is not
// full). TrainAPUCtx fills the ring while it trains, 2 500 cycles of 1.8 ms;
// the warm-up here only collects experiences, which reaches the same
// ring-full state in a sixth of the time and leaves room to repeat the set-up
// for setup_s. The measured loop is TrainAPUCtx's. A window is 2 training
// cycles, about 2.5 ms.
type apuTrainConfig struct{ Warmup, Cycles int }

var apuTrain = apuTrainConfig{Warmup: 2500, Cycles: 2}

// warmupLap is the lap length of the apu_train warm-up in cycles.
const warmupLap = 50

// agentProbe runs ahead of sampled Select calls of a traced agent: it times
// StateSpec.BuildStateInto on the live candidates (the call the agent is about
// to make itself) and keeps copies of the states for the direct nn timings.
type agentProbe struct {
	spec   *core.StateSpec
	buf    []float64
	seen   int64
	build  callTimer
	cost   callTimer // whole time spent probing, taken out of the enclosing step
	states [][]float64
}

func (p *agentProbe) before(ctx *noc.ArbContext, cands []noc.Candidate) {
	p.seen++
	if p.seen%probeEvery != 0 {
		return
	}
	t0 := now()
	p.spec.BuildStateInto(p.buf, ctx.Net, ctx.Cycle, cands)
	t1 := now()
	p.build.ns += t1 - t0
	p.build.calls++
	if len(p.states) < probeKeep {
		p.states = append(p.states, append([]float64(nil), p.buf...))
	}
	p.cost.ns += now() - t0
	p.cost.calls++
}

// agentTrace is what the two APU workloads share when traced: the decorated
// agent, the Runner.Step timer and the per-window span bookkeeping.
type agentTrace struct {
	tr    *tracer
	pol   *timedPolicy
	probe *agentProbe
	// step times Runner.Step; the win* fields are the four timers' totals as
	// of the previous window, for the per-window spans.
	step                              callTimer
	winStep, winSel, winCyc, winProbe callTimer
}

// install decorates agent, makes it net's policy and returns the decorator.
func (t *agentTrace) install(net *noc.Network, agent *core.Agent) noc.Policy {
	if t.probe == nil {
		t.probe = &agentProbe{spec: agent.Spec, buf: make([]float64, agent.Spec.InputSize())}
	}
	prev := t.pol
	var pol noc.Policy
	pol, t.pol = wrapPolicy(agent)
	if prev != nil {
		// A new agent per op: keep one running total across ops.
		t.pol.sel, t.pol.cycle, t.pol.cands = prev.sel, prev.cycle, prev.cands
	}
	t.pol.before = t.probe.before
	net.SetPolicy(pol)
	return pol
}

// hookOnCycle installs a policy's OnCycle on net by the assertion
// apu.RunWorkload uses, so a decorated agent is driven exactly like a bare one.
func hookOnCycle(net *noc.Network, policy noc.Policy) {
	if oc, ok := policy.(cycleHook); ok {
		net.OnCycle = oc.OnCycle
	}
}

// reset forgets what the warm-up accumulated: the layer table describes the
// measured windows only.
func (t *agentTrace) reset() {
	t.step, t.winStep, t.winSel, t.winCyc, t.winProbe = callTimer{}, callTimer{}, callTimer{}, callTimer{}, callTimer{}
	t.pol.sel, t.pol.cycle, t.pol.cands = callTimer{}, callTimer{}, 0
	*t.probe = agentProbe{spec: t.probe.spec, buf: t.probe.buf}
}

func (t *agentTrace) timedStep(r *apu.Runner) {
	t0 := now()
	r.Step()
	t.step.ns += now() - t0
	t.step.calls++
}

// spans emits the window's aggregates: Runner.Step, and inside it the agent's
// Select and OnCycle and this package's own probe.
func (t *agentTrace) spans() {
	ns, calls := t.step.delta(&t.winStep)
	stepSpan := t.tr.child(t.tr.cur, "apu.step", ns, calls)
	ns, calls = t.pol.sel.delta(&t.winSel)
	t.tr.child(stepSpan, "core.select", ns, calls)
	ns, calls = t.pol.cycle.delta(&t.winCyc)
	t.tr.child(stepSpan, "core.oncycle", ns, calls)
	ns, calls = t.probe.cost.delta(&t.winProbe)
	t.tr.child(stepSpan, "harness.probe", ns, calls)
}

// layers fills the apu.* and core.* timings from the fastest windows' spans
// (counts from the whole run) and the nn.* timings measured directly on the
// captured states.
func (t *agentTrace) layers(out map[string]float64, net *nn.MLP) {
	c := t.tr.timerNS
	fast := t.tr.fastTotals()
	cyc := float64(fast["apu.step"].calls)
	selCalls, oncCalls := float64(fast["core.select"].calls), float64(fast["core.oncycle"].calls)
	sel := nonNeg(float64(fast["core.select"].ns) - c*selCalls)
	onc := nonNeg(float64(fast["core.oncycle"].ns) - c*oncCalls)
	step := nonNeg(float64(fast["apu.step"].ns-fast["harness.probe"].ns) - c*cyc - 2*c*(selCalls+oncCalls))
	out["apu.step_ns_per_cycle"] = step / cyc
	out["apu.nonagent_ns_per_cycle"] = nonNeg(step-sel-onc) / cyc
	out["core.select_ns_per_decision"] = sel / selCalls
	out["core.decisions_per_cycle"] = float64(t.pol.sel.calls) / float64(t.step.calls)
	out["core.oncycle_ns_per_cycle"] = onc / cyc
	if t.probe.build.calls > 0 {
		out["core.build_state_ns"] = nonNeg(float64(t.probe.build.ns)/float64(t.probe.build.calls) - c)
	}
	if len(t.probe.states) == 0 {
		return
	}
	states := t.probe.states
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = states[i%len(states)]
	}
	quant := nn.Quantize(net, states)
	train := net.Clone()
	i := 0
	next := func() []float64 { i++; return states[i%len(states)] }
	out["nn.forward_ns"] = timeCall(func() { net.Forward(next()) })
	out["nn.quant_forward_ns"] = timeCall(func() { quant.Forward(next()) })
	out["nn.forward_batch32_us"] = timeCall(func() { net.ForwardBatchFast(batch) }) / 1e3
	out["nn.train_action_ns"] = timeCall(func() { train.TrainAction(next(), i%train.OutputSize(), 0.5, 0.05) })
}

// timeCall returns the ns one call of f takes: the fastest mean over batches
// of calls, the same estimator the windows use.
func timeCall(f func()) float64 {
	const batches, per = 20, 50
	best := int64(1 << 62)
	for b := 0; b < batches; b++ {
		t0 := now()
		for i := 0; i < per; i++ {
			f()
		}
		if d := now() - t0; d < best {
			best = d
		}
	}
	return float64(best) / per
}

func bfsModels() ([4]*synfull.Model, error) {
	m, err := synfull.ByName(apuModel)
	if err != nil {
		return [4]*synfull.Model{}, err
	}
	return apu.Homogeneous(m), nil
}

// apuInferInst runs complete APU episodes arbitrated by a frozen 504-input,
// 42-hidden agent: the paper's deployed "NN" policy. An op is one episode,
// what one apu.RunWorkload call does.
// Weights come from the seed, and the agent is rebuilt for every op, so all
// ops of a run do bit-identical work.
type apuInferInst struct {
	seed    int64
	models  [4]*synfull.Model
	spec    *core.StateSpec
	weights *nn.MLP
	cfg     apu.RunnerConfig
	state   string
	res     apu.ExecResult
	laps    []int64
	onLap   func()      // the set-up's lap, called at every episode lap of the warm-up
	trace   *agentTrace // nil when untraced
}

func (c apuInferConfig) build(seed int64, tr *tracer, lap func()) (instance, error) {
	models, err := bfsModels()
	if err != nil {
		return nil, err
	}
	spec := core.APUSpec()
	a := &apuInferInst{
		seed:   seed,
		models: models,
		spec:   spec,
		weights: nn.New([]int{spec.InputSize(), 42, spec.ActionSize()},
			[]nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rand.New(rand.NewSource(seed+1000))),
		cfg: apu.RunnerConfig{OpScale: c.OpScale, Seed: seed},
	}
	a.onLap = lap
	for i := 0; i < c.WarmupOps; i++ {
		a.Window()
	}
	a.onLap = nil
	if tr != nil {
		a.trace = &agentTrace{tr: tr}
	}
	return a, nil
}

func (a *apuInferInst) Window() {
	agent := core.NewAgentWithNet(a.spec, a.weights, a.seed)
	a.res = a.runWorkload(agent)
	if a.trace != nil {
		a.trace.spans()
	}
	a.state = fmt.Sprintf("cycles=%d finished=%t avg=%s tail=%s latency=%s decisions=%d",
		a.res.Cycles, a.res.Finished, fmtFloat(a.res.Avg), fmtFloat(a.res.Tail), fmtFloat(a.res.AvgLatency), agent.Decisions())
}

// runWorkload is apu.RunWorkload rebuilt from its public parts, so that the
// episode's time can be taken in laps (and, traced, per Runner.Step) from
// here; TestInferEpisodeIsRunWorkload pins that it computes the same episode.
func (a *apuInferInst) runWorkload(agent *core.Agent) apu.ExecResult {
	last := now()
	a.laps = a.laps[:0]
	lap := func() {
		t := now()
		a.laps = append(a.laps, t-last)
		last = t
		if a.onLap != nil {
			a.onLap()
		}
	}
	sys := apu.NewSystem(apu.Config{}, a.cfg.Seed+1)
	if a.trace != nil {
		hookOnCycle(sys.Net, a.trace.install(sys.Net, agent))
	} else {
		sys.Net.SetPolicy(agent)
		hookOnCycle(sys.Net, agent)
	}
	r := apu.NewRunner(sys, a.models, a.cfg)
	for i := int64(0); i < r.Cfg.MaxCycles && !r.Done(); i++ {
		if a.trace != nil {
			a.trace.timedStep(r)
		} else {
			r.Step()
		}
		if (i+1)%inferLap == 0 {
			lap()
		}
	}
	finished := r.Done()
	sys.Net.Drain(10_000)
	res := apu.ExecResult{
		Completion: r.Completion,
		AvgLatency: sys.Net.Stats().Latency.Mean(),
		Cycles:     sys.Net.Cycle(),
		Finished:   finished,
	}
	if finished {
		res.Avg, res.Tail = r.AvgExecTime(), r.TailExecTime()
	}
	lap()
	return res
}

// Laps returns the durations of the last episode's laps: the first holds the
// system build, the last the drain.
func (a *apuInferInst) Laps() []int64 { return a.laps }

func (a *apuInferInst) Check() (int, string) {
	if !a.res.Finished {
		return 1, "episode did not finish within MaxCycles"
	}
	return 0, ""
}

func (a *apuInferInst) State() string { return a.state }
func (a *apuInferInst) Finish() error { return nil }
func (a *apuInferInst) Close()        {}

func (a *apuInferInst) Layers(out map[string]float64) {
	a.trace.layers(out, a.weights)
	out["apu.sim_cycles_per_episode"] = float64(a.res.Cycles)
	out["apu.noc_latency_mean_cycles"] = a.res.AvgLatency
}

// apuTrainInst is the experiments.TrainAPUCtx loop rebuilt from public API
// with its hyper-parameters: one shared agent learns online while bfs
// episodes relaunch on completion. An op is one training cycle: Runner.Step,
// which ends in Agent.OnCycle and so in one DQL.TrainBatch of 32.
type apuTrainInst struct {
	cfg      apuTrainConfig
	seed     int64
	models   [4]*synfull.Model
	agent    *core.Agent
	sys      *apu.System
	runner   *apu.Runner
	launches int64
	// warmSteps is DQL.Steps at the end of the warm-up.
	warmSteps int64
	trace     *agentTrace
}

func (c apuTrainConfig) build(seed int64, tr *tracer, lap func()) (instance, error) {
	models, err := bfsModels()
	if err != nil {
		return nil, err
	}
	a := &apuTrainInst{cfg: c, seed: seed, models: models}
	a.agent = core.NewAgent(core.APUSpec(), core.AgentConfig{
		Hidden: 42,
		DQL: rl.DQLConfig{
			BatchSize: 32,
			LR:        0.05,
			Gamma:     0.5,
			ReplayCap: 16000,
			SyncEvery: 2000,
		},
		EpsStart:       0.5,
		EpsDecayCycles: trainDecay,
		Seed:           seed,
	})
	a.sys = apu.NewSystem(apu.Config{}, seed+11)
	var policy noc.Policy = a.agent
	if tr != nil {
		a.trace = &agentTrace{tr: tr}
		policy = a.trace.install(a.sys.Net, a.agent)
	} else {
		a.sys.Net.SetPolicy(policy)
	}
	lap()
	// The warm-up runs the same relaunching loop with the agent collecting
	// experiences but its OnCycle, and so the batch step, not yet installed.
	for i := 0; i < c.Warmup; i++ {
		a.cycle()
		if (i+1)%warmupLap == 0 {
			lap()
		}
	}
	hookOnCycle(a.sys.Net, policy)
	a.warmSteps = a.agent.DQL.Steps()
	if tr != nil {
		a.trace.reset()
	}
	return a, nil
}

func (a *apuTrainInst) cycle() {
	if a.runner == nil || a.runner.Done() {
		a.runner = apu.NewRunner(a.sys, a.models, apu.RunnerConfig{
			OpScale: trainOpScale,
			Seed:    a.seed + 101*a.launches,
		})
		a.launches++
	}
	if a.trace != nil {
		a.trace.timedStep(a.runner)
		return
	}
	a.runner.Step()
}

func (a *apuTrainInst) Window() {
	for i := 0; i < a.cfg.Cycles; i++ {
		a.cycle()
	}
	if a.trace != nil {
		a.trace.spans()
	}
}

func (a *apuTrainInst) Check() (int, string) {
	return checkConservation(a.sys.Net, a.cfg.Cycles)
}

func (a *apuTrainInst) State() string {
	var wsum float64
	for _, l := range a.agent.Net().Layers {
		for _, w := range l.W {
			wsum += w
		}
	}
	return fmt.Sprintf("%s launches=%d decisions=%d steps=%d weights=%s",
		netState(a.sys.Net), a.launches, a.agent.Decisions(), a.agent.DQL.Steps(), fmtFloat(wsum))
}

func (a *apuTrainInst) Finish() error {
	if r := a.agent.DQL.Replay; r.Len() < r.Cap() {
		return fmt.Errorf("not in steady state: replay ring holds %d of %d experiences", r.Len(), r.Cap())
	}
	return nil
}

func (a *apuTrainInst) Close() {}

func (a *apuTrainInst) Layers(out map[string]float64) {
	cycles := a.trace.step.calls
	steps := a.agent.DQL.Steps() - a.warmSteps
	a.trace.layers(out, a.agent.Net())
	out["apu.sim_cycles_per_episode"] = float64(a.sys.Net.Cycle()) / float64(a.launches)
	out["apu.noc_latency_mean_cycles"] = a.sys.Net.Stats().Latency.Mean()
	out["rl.steps_per_cycle"] = float64(steps) / float64(cycles)
	out["rl.replay_fill"] = float64(a.agent.DQL.Replay.Len()) / float64(a.agent.DQL.Replay.Cap())
	// The run is over, so the live learner can be driven directly.
	rng := rand.New(rand.NewSource(a.seed))
	dst := make([]*rl.Experience, 32)
	out["rl.replay_sample_ns"] = timeCall(func() { a.agent.DQL.Replay.SampleInto(rng, dst) })
	out["rl.train_batch_us"] = timeCall(func() { a.agent.DQL.TrainBatch(rng) }) / 1e3
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

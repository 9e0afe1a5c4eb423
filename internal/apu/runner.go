package apu

import (
	"fmt"
	"math/bits"

	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
	"mlnoc/internal/synfull"
)

// RunnerConfig parameterizes a workload execution.
type RunnerConfig struct {
	// OpScale multiplies every model's operation counts, shrinking or
	// growing program length (default 1.0). Benchmarks use < 1 to keep the
	// full policy sweep fast; the shape of the results is insensitive to it.
	OpScale float64
	// MaxCycles bounds Run (default 2,000,000).
	MaxCycles int64
	// Seed drives all workload randomness.
	Seed int64
	// Faults, if non-nil, equips the run's network with the fault scenario
	// (fault-aware table routing plus injector) before the workload starts.
	// Scenarios built from Spec.KillFraction preserve mesh connectivity, so
	// the coherence protocol keeps its liveness under link kills.
	Faults *fault.Spec
	// Attach, if non-nil, is handed the run's network once RunWorkload has
	// installed the policy's OnCycle hook and the fault scenario, so that
	// instruments it attaches there observe the fully arbitrated cycle. The
	// caller keeps and reports whatever it attaches.
	Attach func(*noc.Network)
}

func (c *RunnerConfig) applyDefaults() {
	if c.OpScale == 0 {
		c.OpScale = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000
	}
}

// Runner executes one synfull workload instance per quadrant — the paper's
// multi-program scenario (Section 4.2) — and records each instance's
// completion time.
type Runner struct {
	Sys       *System
	Cfg       RunnerConfig
	Instances [4]*synfull.Instance

	// Completion[q] is the cycle at which quadrant q's application finished,
	// or -1 while running.
	Completion [4]int64
}

// NewRunner prepares a runner executing models[q] in quadrant q. Pass four
// copies of the same model for the paper's homogeneous scenario (Figs. 9-10)
// or a Fig. 11 mix.
//
// The workload's state — the four instances and the two random streams of
// every CU and CPU — lives in sys and is reset and re-seeded in place, so a
// system runs one Runner at a time and a relaunch allocates only the Runner.
func NewRunner(sys *System, models [4]*synfull.Model, cfg RunnerConfig) *Runner {
	cfg.applyDefaults()
	r := &Runner{Sys: sys, Cfg: cfg}
	for q := 0; q < 4; q++ {
		m := models[q]
		quad := sys.Quadrants[q]
		quad.inst.Reset(m, cfg.Seed+int64(q)*7919)
		r.Instances[q] = &quad.inst
		r.Completion[q] = -1
		for ci, cu := range quad.CUs {
			cu.OpsRemaining = scaleOps(m.OpsPerCU, cfg.OpScale)
			cu.Window = m.Window
			cu.IssueWidth = m.IssueWidth
			cu.DoneAt = -1
			cu.hasPending = false
			base := cfg.Seed*1_000_003 + int64(q)*4096 + int64(ci)
			cu.opRNG.Seed(base*2 + 1)
			cu.cycRNG.Seed(base*2 + 2)
		}
		quad.CPU.OpsRemaining = scaleOps(m.OpsPerCPU, cfg.OpScale)
		quad.CPU.DoneAt = -1
		quad.CPU.wantIssue = false
		quad.CPU.rateRNG.Seed(cfg.Seed*1_000_003 + 9001 + int64(q))
		quad.CPU.opRNG.Seed(cfg.Seed*1_000_003 + 9101 + int64(q))
	}
	return r
}

func scaleOps(ops int64, scale float64) int64 {
	v := int64(float64(ops) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Done reports whether all four instances have completed.
func (r *Runner) Done() bool {
	for _, c := range r.Completion {
		if c < 0 {
			return false
		}
	}
	return true
}

// Step advances the whole system by one cycle: workload phase machines, CU
// and CPU issue, coherence generation, bank service, then the NoC.
func (r *Runner) Step() {
	now := r.Sys.Net.Cycle()
	for q := 0; q < 4; q++ {
		if r.Completion[q] >= 0 {
			continue // idle quadrant (Section 4.2)
		}
		inst := r.Instances[q]
		inst.Tick(now)
		ph := inst.Cur()
		params := PhaseParams{
			MemRatio:      ph.MemRatio,
			WriteRatio:    ph.WriteRatio,
			L1Hit:         ph.L1Hit,
			L2Hit:         ph.L2Hit,
			CoherenceRate: ph.CoherenceRate,
			CPUMemRate:    ph.CPUMemRate,
			LLCHit:        ph.LLCHit,
		}
		r.Sys.params[q] = params
		quad := r.Sys.Quadrants[q]

		done := true
		for _, cu := range quad.CUs {
			cu.Tick(now, &params)
			if !cu.Done() {
				done = false
			}
		}
		quad.CPU.Tick(now, &params)
		if !quad.CPU.Done() {
			done = false
		}
		if done {
			r.Completion[q] = now
		}
	}
	// Tick only the banks holding a queued reply, in AllBanks order. The
	// per-word snapshot is safe: a tick clears only its own bank's bit, and
	// replies are queued by deliveries, inside Net.Step.
	for wi, word := range r.Sys.busy {
		for base := wi << 6; word != 0; word &= word - 1 {
			r.Sys.banks[base+bits.TrailingZeros64(word)].Tick(now)
		}
	}
	r.Sys.Net.Step()
}

// wedgedCycles ends a Run early: a run with messages in flight that delivers
// none for this many consecutive cycles is wedged (its policy grants nothing,
// or its traffic deadlocked) and would only spin on to MaxCycles. In every
// quick-scale APU cell of Figs. 9-11, the Section 5.1 ablation and the fault
// sweep, the longest such stretch is 70 cycles.
const wedgedCycles = 10_000

// Run steps until every instance completes, Cfg.MaxCycles cycles elapse or
// the run wedges (wedgedCycles), then lets residual traffic drain. It
// reports whether all completed.
func (r *Runner) Run() bool {
	net := r.Sys.Net
	delivered, stalled := net.Stats().Delivered, 0
	for i := int64(0); i < r.Cfg.MaxCycles && !r.Done() && stalled < wedgedCycles; i++ {
		r.Step()
		stalled++
		if d := net.Stats().Delivered; d != delivered || net.InFlight() == 0 {
			delivered, stalled = d, 0
		}
	}
	done := r.Done()
	net.Drain(10_000)
	return done
}

// AvgExecTime is the mean completion time across the four instances (the
// Fig. 9 metric). It panics if an instance has not finished.
func (r *Runner) AvgExecTime() float64 {
	var xs [4]float64
	for q, c := range r.Completion {
		if c < 0 {
			panic(fmt.Sprintf("apu: quadrant %d did not complete", q))
		}
		xs[q] = float64(c)
	}
	return stats.Mean(xs[:])
}

// TailExecTime is the completion time of the slowest instance (the Fig. 10
// metric).
func (r *Runner) TailExecTime() float64 {
	var xs [4]float64
	for q, c := range r.Completion {
		if c < 0 {
			panic(fmt.Sprintf("apu: quadrant %d did not complete", q))
		}
		xs[q] = float64(c)
	}
	return stats.Max(xs[:])
}

// ExecResult bundles the execution-time metrics of one run.
type ExecResult struct {
	Avg, Tail  float64
	Completion [4]int64
	AvgLatency float64 // mean NoC message latency during the run
	Cycles     int64
	Finished   bool
	// Faults holds the run's fault counters, non-nil when RunnerConfig.Faults
	// was set.
	Faults *fault.Stats
}

// RunWorkload is the one-call experiment helper: build a system with the
// given config and policy, execute models (all four quadrants), and report
// execution times. Homogeneous runs pass the same model four times.
func RunWorkload(sysCfg Config, policy noc.Policy, models [4]*synfull.Model, runCfg RunnerConfig) ExecResult {
	sys := newPolicySystem(sysCfg, policy, runCfg.Seed+1)
	var inj *fault.Injector
	if runCfg.Faults != nil {
		var err error
		inj, err = runCfg.Faults.Equip(sys.Net)
		if err != nil {
			panic(fmt.Sprintf("apu: invalid fault spec: %v", err))
		}
	}
	if runCfg.Attach != nil {
		runCfg.Attach(sys.Net)
	}
	r := NewRunner(sys, models, runCfg)
	finished := r.Run()
	res := ExecResult{
		Completion: r.Completion,
		AvgLatency: sys.Net.Stats().Latency.Mean(),
		Cycles:     sys.Net.Cycle(),
		Finished:   finished,
	}
	if inj != nil {
		fs := inj.Stats()
		res.Faults = &fs
	}
	if finished {
		res.Avg = r.AvgExecTime()
		res.Tail = r.TailExecTime()
	}
	return res
}

// Homogeneous returns a [4]*Model with the same model in every quadrant.
func Homogeneous(m *synfull.Model) [4]*synfull.Model {
	return [4]*synfull.Model{m, m, m, m}
}

// newPolicySystem builds a system seeded seed with policy installed, and
// with the policy's OnCycle hook when it has one (a learning agent's).
func newPolicySystem(cfg Config, policy noc.Policy, seed int64) *System {
	sys := NewSystem(cfg, seed)
	sys.Net.SetPolicy(policy)
	if oc, ok := policy.(interface{ OnCycle(*noc.Network) }); ok {
		sys.Net.OnCycle = oc.OnCycle
	}
	return sys
}

// Loop is the APU as a training environment (core.Env): the baseline system
// running Models, one per quadrant, with op counts scaled by OpScale, and
// launching them anew each time they all finish, so that a training budget
// is never cut short by the workload ending.
type Loop struct {
	Models  [4]*synfull.Model
	OpScale float64
	Seed    int64
}

// Start builds the system, seeded Seed+11, with policy installed, and returns
// its network and a step that advances the workload by one cycle, first
// launching it when none is running: launch k is seeded Seed+101*k.
func (l Loop) Start(policy noc.Policy) (*noc.Network, func()) {
	sys := newPolicySystem(Config{}, policy, l.Seed+11)
	var runner *Runner
	var launch int64
	return sys.Net, func() {
		if runner == nil || runner.Done() {
			runner = NewRunner(sys, l.Models, RunnerConfig{OpScale: l.OpScale, Seed: l.Seed + 101*launch})
			launch++
		}
		runner.Step()
	}
}

// StatePorts names the input ports of an APU router, the core's, the
// memory's and the four directions', and its NumClasses VCs per port.
func (Loop) StatePorts() ([]noc.PortID, int) {
	return []noc.PortID{noc.PortCore, noc.PortMem, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast}, NumClasses
}

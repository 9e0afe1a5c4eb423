// Command apusim executes APU-SynFull workloads on the paper's CPU+GPU chip
// model under a chosen arbitration policy and reports program execution times
// and NoC statistics.
//
//	apusim -model bfs -policy rl-inspired
//	apusim -mix 2L2H -policy global-age -opscale 0.5
package main

import (
	"errors"
	"fmt"
	"io"

	"mlnoc/internal/apu"
	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/cmdline"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/synfull"
	"mlnoc/internal/trace"
)

func main() { cliutil.Main("apusim", run) }

func run(args []string, stdout io.Writer) error {
	cmd := cmdline.New("apusim")
	model := cmd.String("model", "bfs", "workload model (run four copies, one per quadrant)")
	mix := cmd.String("mix", "", `mixed workload spec like "2L2H" (overrides -model)`)
	policy := cmd.String("policy", "rl-inspired",
		"policy: random, round-robin, islip, fifo, probdist, global-age, rl-inspired, rl-inspired-we, rl-inspired-no-port, rl-inspired-no-msgtype")
	opscale := cmd.Float64("opscale", 0.25, "workload length multiplier")
	quadSide := cmd.Int("quadside", 4, "quadrant side in tiles (chip is 2x2 quadrants)")
	bufcap := cmd.Int("bufcap", 0, "router buffer capacity per VC (0 = default)")
	seed := cmd.Int64("seed", 1, "random seed")
	nnPath := cmd.String("nn", "", "run a saved APU agent network (gob) as the policy")
	obsFlags := cmdline.AddObsFlags(cmd.FlagSet, &cmdline.ObsFlags{SampleEvery: 4, InFlight: true})
	faults := cmd.Float64("faults", 0,
		"fraction of NoC links to kill a third into the programs (0..1, connectivity-preserving)")
	faultSeed := cmd.Int64("fault-seed", 0, "fault scenario seed (0 = use -seed)")
	traceFlags := cmdline.AddTraceFlags(cmd.FlagSet, 64, " (APU runs generate millions)", "")
	if err := cmd.Parse(args); err != nil {
		return err
	}

	var check cliutil.Check
	check.PositiveF("-opscale", *opscale)
	check.AtLeast("-quadside", int64(*quadSide), 3)
	check.NonNegative("-bufcap", int64(*bufcap))
	check.Unit("-faults", *faults)
	obsFlags.Validate(&check)
	traceFlags.Validate(&check)
	log, stop, err := cmd.Start(&check, "", *seed, stdout)
	if err != nil {
		return err
	}
	defer stop()

	var models [4]*synfull.Model
	if *mix != "" {
		var low, high int
		if _, err := fmt.Sscanf(*mix, "%dL%dH", &low, &high); err != nil {
			return cliutil.Usagef("bad -mix %q: %v", *mix, err)
		}
		ms, err := synfull.Mix(low, high)
		if err != nil {
			return cliutil.UsageError{Err: err}
		}
		copy(models[:], ms)
	} else {
		m, err := synfull.ByName(*model)
		if err != nil {
			return cliutil.UsageError{Err: err}
		}
		models = apu.Homogeneous(m)
	}

	var p noc.Policy
	if *nnPath != "" {
		p, err = cliutil.LoadAgent(*nnPath, core.APUSpec(), "APU", *seed)
	} else {
		p, err = makePolicy(*policy, *seed)
	}
	if err != nil {
		return err
	}

	var suite *obs.Suite
	var tr *trace.Tracer
	runCfg := apu.RunnerConfig{
		OpScale: *opscale,
		Seed:    *seed,
		Attach: func(net *noc.Network) {
			suite = obsFlags.Attach(net, log)
			tr = traceFlags.Attach(net)
		},
	}
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

	res := apu.RunWorkload(apu.Config{QuadSide: *quadSide, BufferCap: *bufcap}, p, models, runCfg)
	if err := obsFlags.Report(stdout, suite, *seed); err != nil {
		return err
	}
	if err := traceFlags.Report(stdout, tr); err != nil {
		return err
	}
	if !res.Finished {
		return errors.New("workload did not finish within the cycle budget")
	}
	fmt.Fprintf(stdout, "policy=%s models=[%s %s %s %s]\n", p.Name(),
		models[0].Name, models[1].Name, models[2].Name, models[3].Name)
	fmt.Fprintf(stdout, "  completion per quadrant: %v\n", res.Completion)
	fmt.Fprintf(stdout, "  avg execution time:  %.0f cycles\n", res.Avg)
	fmt.Fprintf(stdout, "  tail execution time: %.0f cycles\n", res.Tail)
	fmt.Fprintf(stdout, "  avg NoC message latency: %.2f cycles\n", res.AvgLatency)
	if res.Faults != nil {
		fmt.Fprintf(stdout, "  faults: %d links killed, %d downtime cycles, %d requeued, %d reroutes, %d unreachable\n",
			res.Faults.LinkKills, res.Faults.DowntimeCycles, res.Faults.Requeued,
			res.Faults.Reroutes, res.Faults.Unreachable)
	}
	return nil
}

func makePolicy(name string, seed int64) (noc.Policy, error) {
	switch name {
	case "rl-inspired":
		return core.NewRLInspiredAPU(), nil
	case "rl-inspired-we":
		return core.NewRLInspiredAPUPaper(), nil
	case "rl-inspired-no-port":
		return &core.RLInspiredAPU{InvertNorthSouth: true, DefeaturePort: true}, nil
	case "rl-inspired-no-msgtype":
		return &core.RLInspiredAPU{InvertNorthSouth: true, DefeatureMsgType: true}, nil
	}
	return cliutil.ClassicPolicy(name, seed)
}

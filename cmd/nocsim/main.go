// Command nocsim runs a synthetic-traffic mesh simulation with a chosen
// arbitration policy and reports latency statistics. It is the quickest way
// to explore the simulator:
//
//	nocsim -size 8 -rate 0.13 -policy global-age -cycles 20000
//	nocsim -size 4 -policy rl-inspired -pattern hotspot
//	nocsim -size 16 -topology torus -rate 0.05
package main

import (
	"fmt"
	"io"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/cmdline"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

func main() { cliutil.Main("nocsim", run) }

func run(args []string, stdout io.Writer) error {
	cmd := cmdline.New("nocsim")
	size := cmd.Int("size", 8, "mesh edge size (routers per side)")
	topology := cmd.String("topology", "mesh", "topology: mesh (open) or torus (wraparound rings)")
	rate := cmd.Float64("rate", 0.13, "injection rate (messages/node/cycle)")
	policy := cmd.String("policy", "global-age",
		"arbitration policy: random, round-robin, islip, fifo, probdist, global-age, rl-inspired")
	pattern := cmd.String("pattern", "uniform",
		"traffic pattern: uniform, transpose, bitcomp, hotspot, tornado")
	cycles := cmd.Int64("cycles", 10000, "measured cycles")
	warmup := cmd.Int64("warmup", 2000, "warmup cycles (stats discarded)")
	vcs := cmd.Int("vcs", 3, "virtual channels per port")
	bufcap := cmd.Int("bufcap", 8, "buffer capacity per VC (messages)")
	seed := cmd.Int64("seed", 1, "random seed")
	nnPath := cmd.String("nn", "", "run a saved agent network (gob) as the policy")
	obsFlags := cmdline.AddObsFlags(cmd.FlagSet, &cmdline.ObsFlags{
		SampleEvery: 1, Indent: "  ", LatencyNote: " (since attach, warmup included)",
	})
	faults := cmd.Float64("faults", 0,
		"fraction of mesh links to kill a third into the measured run (0..1, connectivity-preserving)")
	faultSeed := cmd.Int64("fault-seed", 0, "fault scenario seed (0 = use -seed)")
	traceFlags := cmdline.AddTraceFlags(cmd.FlagSet, 1, " (1 = all)", "  ")
	if err := cmd.Parse(args); err != nil {
		return err
	}

	var check cliutil.Check
	check.AtLeast("-size", int64(*size), 2) // the injector needs two nodes
	check.OneOf("-topology", *topology, "mesh", "torus")
	if *topology == "torus" {
		check.AtLeast("-size", int64(*size), 3)
	}
	check.Unit("-rate", *rate)
	check.NonNegative("-cycles", *cycles)
	check.NonNegative("-warmup", *warmup)
	check.Positive("-vcs", int64(*vcs))
	check.AtMost("-vcs", int64(*vcs), noc.MaxVCs)
	check.Positive("-bufcap", int64(*bufcap))
	check.Unit("-faults", *faults)
	obsFlags.Validate(&check)
	traceFlags.Validate(&check)
	log, stop, err := cmd.Start(&check, "", *seed, stdout)
	if err != nil {
		return err
	}
	defer stop()

	var p noc.Policy
	if *nnPath != "" {
		p, err = cliutil.LoadAgent(*nnPath, core.MeshSpec(*vcs), fmt.Sprintf("%d-VC mesh", *vcs), *seed)
	} else {
		p, err = makePolicy(*policy, *size, *seed)
	}
	if err != nil {
		return err
	}
	pat, err := makePattern(*pattern, *size)
	if err != nil {
		return err
	}
	net, in := traffic.Mesh{
		Config: noc.Config{
			Width: *size, Height: *size, VCs: *vcs, BufferCap: *bufcap,
			Torus: *topology == "torus",
		},
		Pattern: pat,
		Rate:    *rate,
		Seed:    *seed + 1,
	}.Build(p)
	var inj *fault.Injector
	if *faults > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		spec := fault.Spec{
			KillFraction: *faults,
			KillAt:       *warmup + *cycles/3,
			Seed:         fseed,
		}
		if inj, err = spec.Equip(net); err != nil {
			return err
		}
	}

	suite := obsFlags.Attach(net, log)
	tr := traceFlags.Attach(net)

	res := traffic.Run(net, in, *warmup, *cycles)
	st := net.Stats()
	fmt.Fprintf(stdout, "policy=%s pattern=%s topology=%s size=%dx%d rate=%.3f\n",
		p.Name(), pat.Name(), *topology, *size, *size, *rate)
	fmt.Fprintf(stdout, "  delivered %d msgs in %d cycles (%.3f msgs/node/cycle accepted)\n",
		res.Delivered, res.Cycles, float64(res.Delivered)/float64(res.Cycles)/float64(len(in.Nodes)))
	fmt.Fprintf(stdout, "  latency: avg %.1f, max %.0f (generation to delivery)\n",
		res.AvgLatency, res.MaxLatency)
	fmt.Fprintf(stdout, "  in-network latency: avg %.1f, avg hops %.2f\n",
		st.NetLatency.Mean(), st.HopLatency.Mean())
	if inj != nil {
		fs := inj.Stats()
		fmt.Fprintf(stdout, "  faults: %d links killed, %d downtime cycles, %d requeued, %d reroutes, %d unreachable\n",
			fs.LinkKills, fs.DowntimeCycles, fs.Requeued, fs.Reroutes, fs.Unreachable)
	}
	if err := obsFlags.Report(stdout, suite, *seed); err != nil {
		return err
	}
	return traceFlags.Report(stdout, tr)
}

func makePolicy(name string, size int, seed int64) (noc.Policy, error) {
	if name == "rl-inspired" {
		if size >= 8 {
			return core.NewRLInspiredMesh8x8(), nil
		}
		return core.NewRLInspiredMesh4x4(), nil
	}
	return cliutil.ClassicPolicy(name, seed)
}

func makePattern(name string, size int) (traffic.Pattern, error) {
	switch name {
	case "uniform":
		return traffic.UniformRandom{}, nil
	case "transpose":
		return traffic.Transpose{}, nil
	case "bitcomp":
		return traffic.BitComplement{}, nil
	case "hotspot":
		return traffic.Hotspot{Spots: []int{size/2*size + size/2}, Fraction: 0.3}, nil
	case "tornado":
		return traffic.Tornado{Width: size}, nil
	}
	return nil, cliutil.Usagef("unknown pattern %q", name)
}

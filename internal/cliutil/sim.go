package cliutil

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
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

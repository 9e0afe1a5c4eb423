package cliutil

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/xrand"
)

// WriteFile writes path, buffered, through write, and replaces it only once
// every byte is written: it writes a temporary file in path's directory,
// syncs it and renames it over path, so a failed or interrupted write leaves
// the previous file as it was and no temporary file behind. It returns the
// first error of the write, the flush, the sync, the close and the rename.
// The file keeps the mode of the file it replaces, and a new one gets 0644.
// A path that exists and is not a regular file (a device such as /dev/null,
// a pipe, a symbolic link) is written in place, since a rename would replace
// it.
func WriteFile(path string, write func(io.Writer) error) error {
	mode := os.FileMode(0o644)
	if fi, err := os.Lstat(path); err == nil {
		if !fi.Mode().IsRegular() {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
			if err != nil {
				return err
			}
			return writeClose(f, write, false)
		}
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = writeClose(f, write, true)
	if err == nil {
		err = os.Chmod(f.Name(), mode)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// writeClose writes f, buffered, through write, flushes it, syncs it if
// sync is set, and closes it. It returns the first error.
func writeClose(f *os.File, write func(io.Writer) error, sync bool) error {
	bw := bufio.NewWriter(f)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil && sync {
		err = f.Sync()
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

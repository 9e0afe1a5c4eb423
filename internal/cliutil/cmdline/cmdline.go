// Package cmdline is the run setup the simulation commands share: a command's
// flag set with the logging flags, the profiling flags (-cpuprofile,
// -memprofile, -pprof) and the "seed: N" line.
//
// It is apart from cliutil because it links net/http/pprof, whose handlers
// -pprof serves: internal/serve imports cliutil for its validation vocabulary,
// and a binary that embeds the daemon should not carry the profiling server.
package cmdline

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"

	"mlnoc/internal/cliutil"
)

// Command is one command's flag set together with its run-setup flags.
type Command struct {
	*flag.FlagSet
	prog                   string
	log                    cliutil.LogConfig
	cpuProfile, memProfile string
	pprofAddr              string
}

// New returns prog's flag set, which reports parse errors instead of exiting,
// with the run-setup flags registered.
func New(prog string) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(prog, flag.ContinueOnError), prog: prog}
	cliutil.AddLogFlags(c.FlagSet, &c.log)
	c.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	c.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	c.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return c
}

// Parse parses args. A malformed flag comes back as a cliutil.UsageError, -h
// as flag.ErrHelp; the flag package has printed the usage for both.
func (c *Command) Parse(args []string) error {
	err := c.FlagSet.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return cliutil.UsageError{Err: err}
	}
	return err
}

// Start finishes the run setup once the command has recorded its own flag
// constraints on chk. It validates the logging flags too, builds the stderr
// logger whose records carry corr_id <prog>[-<what>]-<pid>-<seed> (one ID per
// invocation: interleaved JSON logs of a batch of runs separate cleanly),
// starts the profilers and prints "seed: N" on stdout. The caller defers
// stop, which ends the profiles.
func (c *Command) Start(chk *cliutil.Check, what string, seed int64, stdout io.Writer) (log *slog.Logger, stop func(), err error) {
	c.log.Validate(chk)
	if err := chk.Err(); err != nil {
		return nil, nil, cliutil.UsageError{Err: err}
	}
	id := c.prog
	if what != "" {
		id += "-" + what
	}
	log = c.log.Logger(os.Stderr).With("corr_id", fmt.Sprintf("%s-%d-%d", id, os.Getpid(), seed))
	if stop, err = c.startProfiling(); err != nil {
		return nil, nil, err
	}
	cliutil.PrintSeed(stdout, seed)
	return log, stop, nil
}

// startProfiling starts the profilers the flags ask for; the pprof server
// lives as long as the process. stop ends the CPU profile and writes the heap
// profile, after a GC so it shows live memory, not transient garbage.
func (c *Command) startProfiling() (stop func(), err error) {
	var cpuFile *os.File
	if c.cpuProfile != "" {
		if cpuFile, err = os.Create(c.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", c.prog, err)
			}
		}()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: cpu profile: %v\n", c.prog, err)
			}
		}
		if c.memProfile != "" {
			runtime.GC()
			if err := cliutil.WriteFile(c.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: heap profile: %v\n", c.prog, err)
			}
		}
	}, nil
}

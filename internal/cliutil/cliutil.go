// Package cliutil holds the small pieces of command-line plumbing shared by
// every binary in cmd/: flag validation with uniform rejection messages, and
// effective-seed reporting. The same validation vocabulary is reused by
// internal/serve to check JSON job specs, so a flag rejected by a CLI and a
// field rejected by the daemon read identically ("-rate must be in [0,1],
// got 1.5" vs `sweep.op_scale must be positive, got 0`).
package cliutil

import (
	"fmt"
	"io"
	"os"
)

// Check accumulates validation failures. The zero value is ready to use; add
// constraints with the methods below, then inspect Err or call Exit. Names
// are reported verbatim, so CLIs pass "-rate" and spec validators pass
// "sweep.op_scale".
type Check struct {
	errs []error
}

// fail records one violation.
func (c *Check) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// Positive requires v > 0.
func (c *Check) Positive(name string, v int64) {
	if v <= 0 {
		c.fail("%s must be positive, got %d", name, v)
	}
}

// PositiveF requires v > 0.
func (c *Check) PositiveF(name string, v float64) {
	if v <= 0 {
		c.fail("%s must be positive, got %g", name, v)
	}
}

// NonNegative requires v >= 0.
func (c *Check) NonNegative(name string, v int64) {
	if v < 0 {
		c.fail("%s must be >= 0, got %d", name, v)
	}
}

// Unit requires v in [0,1].
func (c *Check) Unit(name string, v float64) {
	if v < 0 || v > 1 {
		c.fail("%s must be in [0,1], got %g", name, v)
	}
}

// AtLeast requires v >= min.
func (c *Check) AtLeast(name string, v, min int64) {
	if v < min {
		c.fail("%s must be >= %d, got %d", name, min, v)
	}
}

// AtMost requires v <= max.
func (c *Check) AtMost(name string, v, max int64) {
	if v > max {
		c.fail("%s must be <= %d, got %d", name, max, v)
	}
}

// AtLeastU requires v >= min.
func (c *Check) AtLeastU(name string, v, min uint64) {
	if v < min {
		c.fail("%s must be >= %d, got %d", name, min, v)
	}
}

// OneOf requires v to be one of the allowed strings.
func (c *Check) OneOf(name, v string, allowed ...string) {
	for _, a := range allowed {
		if v == a {
			return
		}
	}
	c.fail("%s must be one of %v, got %q", name, allowed, v)
}

// Err returns the first recorded violation, or nil when every constraint
// held. Validation is fail-fast in message but exhaustive in recording: all
// violations are kept (see Errs) and the first one names the error.
func (c *Check) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return c.errs[0]
}

// Errs returns every recorded violation in check order.
func (c *Check) Errs() []error { return c.errs }

// Exit prints the first violation as "prog: <msg>" to stderr and exits with
// status 2 (the flag-error convention); it is a no-op when the check passed.
func (c *Check) Exit(prog string) {
	if err := c.Err(); err != nil {
		Fatal(prog, "%v", err)
	}
}

// Fatal prints "prog: <msg>" to stderr and exits with status 2. It is the
// shared shape of the per-cmd fail closures.
func Fatal(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	os.Exit(2)
}

// PrintSeed reports the effective RNG seed on w in the uniform "seed: N"
// format every cmd prints, so any run's exact rerun command can be
// reconstructed from its output.
func PrintSeed(w io.Writer, seed int64) {
	fmt.Fprintf(w, "seed: %d\n", seed)
}

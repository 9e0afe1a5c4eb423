package experiments

import (
	"fmt"
	"sync"

	"mlnoc/internal/apu"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
)

// Telemetry configures observability for the sweep experiments
// (ExecSweepCtx, MixedWorkloadsCtx, AblationCtx, FaultSweepRatesCtx). The
// zero value disables everything; a nil *Telemetry is valid everywhere one is
// accepted. One Telemetry may be shared by the parallel cells of a sweep:
// progress reporting is serialized and the registry is concurrency-safe.
type Telemetry struct {
	// Progress, if non-nil, is called after each completed sweep cell with
	// the number of finished cells, the sweep total and the cell label
	// ("workload/policy"). Calls are serialized across workers.
	Progress func(done, total int, label string)
	// Registry, if non-nil, receives one obs snapshot per sweep cell, keyed
	// by the cell label.
	Registry *obs.Registry
	// Watchdog, if non-nil, attaches a starvation/livelock watchdog to every
	// cell; alerts land in the cell's snapshot, and a cell that fails to
	// finish panics with the watchdog summary instead of a bare "did not
	// finish".
	Watchdog *obs.WatchdogConfig
	// SampleEvery is the collector sampling period in cycles (default 16; a
	// sweep samples coarsely to stay cheap).
	SampleEvery int64
	// Trace, if non-nil, attaches a per-message lifecycle tracer to every
	// cell; TraceSink receives each cell's tracer (serialized across
	// workers). Both must be set for tracing to run.
	Trace     *trace.Config
	TraceSink func(label string, t *trace.Tracer)

	mu   sync.Mutex
	done int
}

// suiteConfig returns the per-cell obs configuration, or nil when no
// telemetry collection is requested.
func (t *Telemetry) suiteConfig() *obs.SuiteConfig {
	if t == nil || (t.Registry == nil && t.Watchdog == nil) {
		return nil
	}
	every := t.SampleEvery
	if every <= 0 {
		every = 16
	}
	return &obs.SuiteConfig{SampleEvery: every, Watchdog: t.Watchdog}
}

// traceConfig returns the per-cell trace configuration, or nil when no trace
// sink is installed.
func (t *Telemetry) traceConfig() *trace.Config {
	if t == nil || t.Trace == nil || t.TraceSink == nil {
		return nil
	}
	cfg := *t.Trace
	return &cfg
}

// cellDone records one finished cell: snapshots it into the registry and
// reports progress.
func (t *Telemetry) cellDone(total int, label string, r apu.ExecResult) {
	if t == nil {
		return
	}
	if t.Registry != nil && r.Obs != nil {
		t.Registry.Record(label, r.Obs.Snapshot())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.TraceSink != nil && r.Trace != nil {
		t.TraceSink(label, r.Trace)
	}
	t.done++
	if t.Progress != nil {
		t.Progress(t.done, total, label)
	}
}

// cellSnapshot records one finished non-APU cell (e.g. a synthetic-traffic
// mesh run that attached its own obs suite) and reports progress; suite may
// be nil.
func (t *Telemetry) cellSnapshot(total int, label string, suite *obs.Suite) {
	if t == nil {
		return
	}
	if t.Registry != nil && suite != nil {
		t.Registry.Record(label, suite.Snapshot())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if t.Progress != nil {
		t.Progress(t.done, total, label)
	}
}

// cellFailure builds the panic message for a sweep cell that did not finish,
// appending the cell's watchdog diagnosis when telemetry is attached.
func cellFailure(label string, r apu.ExecResult) string {
	msg := fmt.Sprintf("experiments: %s did not finish after %d cycles", label, r.Cycles)
	if r.Obs != nil {
		snap := r.Obs.Snapshot()
		msg += fmt.Sprintf(" (%d messages in flight, max sampled head age %d)",
			snap.InFlight, snap.MaxHeadAge())
		if r.Obs.Watchdog != nil && r.Obs.Watchdog.Tripped() {
			msg += "\nwatchdog diagnostics:\n" + r.Obs.Watchdog.Summary()
		}
	}
	return msg
}

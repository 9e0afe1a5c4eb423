package experiments

import (
	"fmt"
	"sync"

	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/trace"
)

// Telemetry configures observability for the sweep experiments: the APU
// policy grid (apuGrid) and the faults study's mesh cells. The zero value
// attaches nothing; a nil *Telemetry is valid everywhere one is accepted.
// One Telemetry may be shared by the parallel cells of a sweep: OnCell calls
// are serialized.
type Telemetry struct {
	// Obs attaches an obs suite to every cell, sampling every 16 cycles (a
	// sweep samples coarsely to stay cheap). An APU cell that fails to
	// finish panics with the suite's diagnosis instead of a bare "did not
	// finish".
	Obs bool
	// Watchdog, if non-nil, adds a starvation/livelock watchdog to every
	// cell's suite, and so implies Obs. Its alerts land in the cell's
	// snapshot and its summary in a failing cell's panic.
	Watchdog *obs.WatchdogConfig
	// Trace, if non-nil, attaches a per-message lifecycle tracer to every
	// cell.
	Trace *trace.Config
	// OnCell, if non-nil, is called after each finished cell with what was
	// attached to it. Calls are serialized across workers.
	OnCell func(Cell)

	mu   sync.Mutex
	done int
}

// Cell is one finished sweep cell, as OnCell receives it.
type Cell struct {
	// Label is "<workload>/<policy>".
	Label string
	// Done counts the finished cells of the sweep, this one included, out
	// of Total.
	Done, Total int
	// Suite and Tracer are the cell's instruments, nil unless Telemetry
	// asked for them.
	Suite  *obs.Suite
	Tracer *trace.Tracer
}

// attach equips the network of the cell label with the instruments t asks
// for: the one place sweep cells, APU and mesh alike, get theirs.
func (t *Telemetry) attach(label string, net *noc.Network) Cell {
	c := Cell{Label: label}
	if t == nil {
		return c
	}
	if t.Obs || t.Watchdog != nil {
		c.Suite = obs.Attach(net, obs.SuiteConfig{SampleEvery: 16, Watchdog: t.Watchdog})
	}
	if t.Trace != nil {
		c.Tracer = trace.Attach(net, *t.Trace)
	}
	return c
}

// cellDone counts c as finished out of total and hands it to OnCell. The
// lock is held across OnCell: serializing the calls is its contract.
func (t *Telemetry) cellDone(c Cell, total int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if t.OnCell != nil {
		c.Done, c.Total = t.done, total
		t.OnCell(c)
	}
}

// cellFailure builds the panic message for a sweep cell that did not finish
// after cycles, appending the diagnosis of its obs suite when it has one.
func cellFailure(c Cell, cycles int64) string {
	msg := fmt.Sprintf("experiments: %s did not finish after %d cycles", c.Label, cycles)
	if c.Suite != nil {
		snap := c.Suite.Snapshot()
		msg += fmt.Sprintf(" (%d messages in flight, max sampled head age %d)",
			snap.InFlight, snap.MaxHeadAge())
		if wd := c.Suite.Watchdog; wd != nil && wd.Tripped() {
			msg += "\nwatchdog diagnostics:\n" + wd.Summary()
		}
	}
	return msg
}

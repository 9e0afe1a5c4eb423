package experiments

import (
	"fmt"
	"sync"

	"mlnoc/internal/noc"
)

// CellHook is the per-cell hook of the sweep experiments: the APU policy grid
// (apuGrid) and the faults study's mesh cells. It is handed each cell's
// network, labelled "<workload>/<policy>", before the cell's first cycle, and
// returns what to call once the cell has finished (nil for nothing), with the
// sweep's finished cells, this one included, out of its total. The hook runs
// on the sweep's parallel workers; the done calls of one sweep are serialized.
type CellHook func(label string, net *noc.Network) (done func(finished, total int))

// cellCount counts the finished cells of one sweep for its hook.
type cellCount struct {
	hook  CellHook
	total int

	mu   sync.Mutex
	done int
}

// attach hands the network of the cell label to the hook and returns what the
// cell calls once it has finished. The lock is held across the hook's done:
// serializing the calls is its contract.
func (c *cellCount) attach(label string, net *noc.Network) (finished func()) {
	var done func(int, int)
	if c.hook != nil {
		done = c.hook(label, net)
	}
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.done++
		if done != nil {
			done(c.done, c.total)
		}
	}
}

// cellFailure builds the panic message for the sweep cell label, whose
// network net did not finish after cycles.
func cellFailure(label string, net *noc.Network, cycles int64) string {
	return fmt.Sprintf("experiments: %s did not finish after %d cycles (%d messages in flight, max queued local age %d)",
		label, cycles, net.InFlight(), MaxQueuedLocalAge(net))
}

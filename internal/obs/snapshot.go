package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"mlnoc/internal/noc"
)

// PortSnapshot is the exported state of one router input port.
type PortSnapshot struct {
	Port          string  `json:"port"`
	Grants        int64   `json:"grants"`
	BlockedCycles int64   `json:"blocked_cycles"`
	AvgOccupancy  float64 `json:"avg_occupancy"`
	MaxOccupancy  int     `json:"max_occupancy"`
	// MaxHeadAge[vc] is the largest head-of-line local age sampled per VC.
	MaxHeadAge []int64 `json:"max_head_age_per_vc"`
}

// RouterSnapshot is the exported state of one router.
type RouterSnapshot struct {
	Router    int            `json:"router"`
	X         int            `json:"x"`
	Y         int            `json:"y"`
	Injected  int64          `json:"injected"`
	Delivered int64          `json:"delivered"`
	Ports     []PortSnapshot `json:"ports"`
}

// Snapshot is a point-in-time export of a Collector (plus any watchdog
// alerts, when taken through a Suite). It is a plain value: safe to hand to
// a Registry, marshal, and compare.
type Snapshot struct {
	Cycle     int64 `json:"cycle"`
	Samples   int64 `json:"samples"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	InFlight  int64 `json:"in_flight"`
	// LatencyP50/P95/P99 are generation-to-delivery latency quantiles over
	// the messages delivered since attach, interpolated from a fixed-bin
	// histogram (absent when nothing was delivered).
	LatencyP50 float64          `json:"latency_p50,omitempty"`
	LatencyP95 float64          `json:"latency_p95,omitempty"`
	LatencyP99 float64          `json:"latency_p99,omitempty"`
	Routers    []RouterSnapshot `json:"routers"`
	Alerts     []Alert          `json:"alerts,omitempty"`
	// SuppressedAlerts counts watchdog alerts beyond the recording cap.
	SuppressedAlerts int64 `json:"suppressed_alerts,omitempty"`
	// Seed is the RNG seed of the run that produced this snapshot, recorded
	// by the CLIs so any exported metrics file identifies its exact rerun.
	Seed int64 `json:"seed,omitempty"`
	// Faults carries the network's fault counters, present only when fault
	// machinery touched the run (see noc.Network.Faulty).
	Faults *noc.FaultStats `json:"faults,omitempty"`
}

// Snapshot exports the collector's current counters.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		Cycle:     c.net.Cycle(),
		Samples:   c.samples,
		Injected:  c.injected,
		Delivered: c.delivered,
		InFlight:  c.net.InFlight(),
	}
	if c.latency.Count() > 0 {
		s.LatencyP50 = c.latency.Quantile(0.50)
		s.LatencyP95 = c.latency.Quantile(0.95)
		s.LatencyP99 = c.latency.Quantile(0.99)
	}
	if c.net.Faulty() {
		fs := c.net.FaultStats()
		s.Faults = &fs
	}
	for i, r := range c.net.Routers() {
		rs := RouterSnapshot{
			Router:    r.ID(),
			X:         r.Coord.X,
			Y:         r.Coord.Y,
			Injected:  c.routers[i].injected,
			Delivered: c.routers[i].delivered,
		}
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			pc := c.routers[i].ports[p]
			if pc == nil {
				continue
			}
			ps := PortSnapshot{
				Port:          p.String(),
				Grants:        pc.grants,
				BlockedCycles: pc.blocked,
				MaxOccupancy:  pc.maxOcc,
				MaxHeadAge:    append([]int64(nil), pc.maxHeadAge...),
			}
			if c.samples > 0 {
				ps.AvgOccupancy = float64(pc.occSum) / float64(c.samples)
			}
			rs.Ports = append(rs.Ports, ps)
		}
		s.Routers = append(s.Routers, rs)
	}
	return s
}

// TotalGrants sums grants over every router port.
func (s *Snapshot) TotalGrants() int64 {
	var total int64
	for _, r := range s.Routers {
		for _, p := range r.Ports {
			total += p.Grants
		}
	}
	return total
}

// TotalBlockedCycles sums blocked cycles over every router port.
func (s *Snapshot) TotalBlockedCycles() int64 {
	var total int64
	for _, r := range s.Routers {
		for _, p := range r.Ports {
			total += p.BlockedCycles
		}
	}
	return total
}

// MaxHeadAge returns the largest sampled head-of-line age anywhere in the
// network.
func (s *Snapshot) MaxHeadAge() int64 {
	var maxAge int64
	for _, r := range s.Routers {
		for _, p := range r.Ports {
			for _, a := range p.MaxHeadAge {
				if a > maxAge {
					maxAge = a
				}
			}
		}
	}
	return maxAge
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Registry collects named snapshots from concurrent runs (one per experiment
// sweep cell). All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	snaps    map[string]*Snapshot
	seed     int64
	hasSeed  bool
	onRecord func(name string, s *Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{snaps: make(map[string]*Snapshot)}
}

// SetSeed records the RNG seed of the sweep that feeds this registry; it is
// included in WriteJSON so exported metrics identify their exact rerun.
func (g *Registry) SetSeed(seed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seed = seed
	g.hasSeed = true
}

// SetOnRecord installs a hook that observes every snapshot as it is
// recorded, after it is stored. It is the registry's streaming seam: a
// long-running server forwards each sweep cell's snapshot to live
// subscribers (SSE) the moment the cell finishes instead of polling the
// registry. The hook runs on the recording goroutine — with parallel sweep
// cells that means concurrently — and outside the registry lock, so it may
// call back into the registry but must be concurrency-safe itself.
func (g *Registry) SetOnRecord(f func(name string, s *Snapshot)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onRecord = f
}

// Record stores a snapshot under name, replacing any previous snapshot with
// the same name, then invokes the OnRecord hook when one is installed.
func (g *Registry) Record(name string, s *Snapshot) {
	g.mu.Lock()
	g.snaps[name] = s
	f := g.onRecord
	g.mu.Unlock()
	if f != nil {
		f(name, s)
	}
}

// Get returns the snapshot recorded under name, or nil.
func (g *Registry) Get(name string) *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snaps[name]
}

// Names returns the recorded snapshot names, sorted.
func (g *Registry) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.snaps))
	for name := range g.snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of recorded snapshots.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.snaps)
}

// Alerts returns every watchdog alert across recorded snapshots, prefixed
// with the run name.
func (g *Registry) Alerts() []string {
	var out []string
	for _, name := range g.Names() {
		s := g.Get(name)
		for _, a := range s.Alerts {
			out = append(out, name+": "+a.String())
		}
		if s.SuppressedAlerts > 0 {
			out = append(out, fmt.Sprintf("%s: (%d further alerts suppressed)", name, s.SuppressedAlerts))
		}
	}
	return out
}

// namedSnapshot pairs a run name with its snapshot for ordered JSON export.
type namedSnapshot struct {
	Name     string    `json:"name"`
	Snapshot *Snapshot `json:"snapshot"`
}

// registryDoc is the JSON layout of Registry.WriteJSON.
type registryDoc struct {
	Seed *int64          `json:"seed,omitempty"`
	Runs []namedSnapshot `json:"runs"`
}

// WriteJSON writes every recorded snapshot as one JSON document:
// {"seed": ..., "runs": [{"name": ..., "snapshot": {...}}, ...]}, sorted by
// name. The seed field appears when SetSeed was called.
func (g *Registry) WriteJSON(w io.Writer) error {
	doc := registryDoc{Runs: make([]namedSnapshot, 0, g.Len())}
	for _, name := range g.Names() {
		doc.Runs = append(doc.Runs, namedSnapshot{Name: name, Snapshot: g.Get(name)})
	}
	g.mu.Lock()
	if g.hasSeed {
		seed := g.seed
		doc.Seed = &seed
	}
	g.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

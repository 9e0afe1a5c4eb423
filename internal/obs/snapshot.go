package obs

import (
	"encoding/json"
	"io"

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
// alerts, when taken through a Suite). It is a plain value: safe to keep,
// marshal, and compare.
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

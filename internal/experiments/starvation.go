package experiments

import (
	"fmt"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
)

// StarvationResult compares policies under adversarial hotspot traffic
// (Section 6.4): the naive newest-first arbiter — the behaviour an agent
// trained on a completed-messages-only latency reward learns — starves old
// messages, while Algorithm 2's local-age clause bounds waiting time.
type StarvationResult struct {
	Policies []string
	// MaxQueuedLocalAge is the largest local age among messages still queued
	// when injection stops — unbounded growth indicates starvation.
	MaxQueuedLocalAge []int64
	// MaxDeliveredLatency and AvgDeliveredLatency cover delivered messages.
	MaxDeliveredLatency []float64
	AvgDeliveredLatency []float64
}

// Starvation runs the Section 6.4 guard experiment on a 4x4 mesh under
// hotspot traffic.
func Starvation(sc Scale) *StarvationResult {
	policies := []struct {
		name string
		p    noc.Policy
	}{
		{"naive-newest-first", core.NaiveLatencyArbiter{}},
		{"fifo", arb.NewFIFO()},
		{"rl-inspired (Alg.2)", core.NamedRule("rl-inspired")},
	}
	res := &StarvationResult{}
	for _, pp := range policies {
		// Sustained but unsaturated contention, inside the regime Algorithm 2
		// was designed for: the newest-first arbiter starves waiting heads
		// behind the continuous stream of fresh arrivals, while any
		// aging-aware policy bounds waiting time. (At saturation every 5-bit
		// age saturates and the metric would measure congestion-tree depth,
		// which no arbiter can bound.)
		net := hotspotRun(pp.p, 0.3, 0.14, sc.Seed+17, sc)
		res.Policies = append(res.Policies, pp.name)
		res.MaxQueuedLocalAge = append(res.MaxQueuedLocalAge, MaxQueuedLocalAge(net))
		res.MaxDeliveredLatency = append(res.MaxDeliveredLatency, net.Stats().Latency.Max())
		res.AvgDeliveredLatency = append(res.AvgDeliveredLatency, net.Stats().Latency.Mean())
	}
	return res
}

// hotspotRun steps a 4x4 mesh under p for sc.MeasureCycles cycles (4000 when
// unset) of hotspot traffic that sends fraction of its messages to cores 5
// and 6, injecting to the last cycle, and returns the network to be read.
func hotspotRun(p noc.Policy, fraction, rate float64, seed int64, sc Scale) *noc.Network {
	net, in := traffic.Mesh{
		Config:  noc.Config{Width: 4, Height: 4, VCs: 3},
		Pattern: traffic.Hotspot{Spots: []int{5, 6}, Fraction: fraction},
		Rate:    rate,
		Seed:    seed,
	}.Build(p)
	cycles := sc.MeasureCycles
	if cycles <= 0 {
		cycles = 4000
	}
	for i := int64(0); i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	return net
}

// MaxQueuedLocalAge scans every input buffer of the network and returns the
// largest local age among queued messages.
func MaxQueuedLocalAge(net *noc.Network) int64 {
	now := net.Cycle()
	var maxAge int64
	for _, r := range net.Routers() {
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			for vc := 0; vc < r.NumVCs(); vc++ {
				b := r.Buffer(p, vc)
				if b == nil {
					continue
				}
				for i := 0; i < b.Len(); i++ {
					if age := b.At(i).LocalAge(now); age > maxAge {
						maxAge = age
					}
				}
			}
		}
	}
	return maxAge
}

// Render formats the comparison.
func (r *StarvationResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 6.4 starvation guard: hotspot traffic on a 4x4 mesh\n")
	rows := make([][]string, len(r.Policies))
	for i := range r.Policies {
		rows[i] = []string{
			r.Policies[i],
			fmt.Sprintf("%d", r.MaxQueuedLocalAge[i]),
			fmt.Sprintf("%.0f", r.MaxDeliveredLatency[i]),
			fmt.Sprintf("%.1f", r.AvgDeliveredLatency[i]),
		}
	}
	b.WriteString(viz.Table(
		[]string{"policy", "max queued local age", "max delivered latency", "avg latency"}, rows))
	return b.String()
}

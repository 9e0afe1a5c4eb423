package experiments

import (
	"fmt"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/flit"
	"mlnoc/internal/noc"
	"mlnoc/internal/viz"
	"mlnoc/internal/xrand"
)

// FlitCheckResult is the flit-level cross-validation of the Fig. 5 policy
// ordering: the same uniform-random experiment run on the flit-granularity
// wormhole/VC engine (Garnet's granularity, see internal/flit).
type FlitCheckResult struct {
	Policies   []string
	AvgLatency []float64
	Normalized []float64 // to global-age
	Delivered  []int64
}

// FlitCheck runs round-robin, FIFO, the RL-inspired priority and global-age —
// the policy objects Fig. 5 runs — on the 8x8 flit-level mesh under identical
// traffic and reports average packet latency.
func FlitCheck(sc Scale) *FlitCheckResult {
	arbs := []struct {
		name string
		p    noc.Policy
	}{
		{"Round-robin", arb.NewRoundRobin()},
		{"FIFO", arb.NewFIFO()},
		{"RL-inspired", inspiredMesh(8)},
		{"Global-age", arb.NewGlobalAge()},
	}
	cycles := sc.MeasureCycles * 3
	if cycles < 6000 {
		cycles = 6000
	}
	res := &FlitCheckResult{}
	for _, a := range arbs {
		e := flit.New(flit.Config{Width: 8, Height: 8, VCs: 3}, a.p)
		rng := xrand.New(sc.Seed + 11)
		const msgRate = 0.35 / 2.2 // ~0.35 flits/node/cycle offered
		for i := int64(0); i < cycles; i++ {
			for nd := 0; nd < e.NumNodes(); nd++ {
				if rng.Float64() >= msgRate {
					continue
				}
				size := 1
				if rng.Float64() < 0.3 {
					size = 5
				}
				dst := rng.Intn(e.NumNodes() - 1)
				if dst >= nd {
					dst++
				}
				e.Inject(nd, dst, noc.Class(rng.Intn(3)), size)
			}
			e.Step()
		}
		e.Drain(20 * cycles)
		res.Policies = append(res.Policies, a.name)
		res.AvgLatency = append(res.AvgLatency, e.Stats().Latency.Mean())
		res.Delivered = append(res.Delivered, e.Stats().Delivered)
	}
	base := res.AvgLatency[len(res.AvgLatency)-1]
	for _, v := range res.AvgLatency {
		res.Normalized = append(res.Normalized, v/base)
	}
	return res
}

// Render formats the cross-validation table.
func (r *FlitCheckResult) Render() string {
	var b strings.Builder
	b.WriteString("Flit-level cross-validation (8x8 wormhole/VC mesh, uniform random):\n")
	rows := make([][]string, len(r.Policies))
	for i := range r.Policies {
		rows[i] = []string{
			r.Policies[i],
			fmt.Sprintf("%.1f", r.AvgLatency[i]),
			fmt.Sprintf("%.3f", r.Normalized[i]),
			fmt.Sprintf("%d", r.Delivered[i]),
		}
	}
	b.WriteString(viz.Table(
		[]string{"policy", "avg latency", "normalized", "packets"}, rows))
	b.WriteString("The Fig. 5 policy ordering must hold at flit granularity too.\n")
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
	"mlnoc/internal/xrand"
)

// FairnessResult is the extended equality-of-service study (Section 5.2's
// observation that the RL-inspired policy "provides better fairness"): per
// policy, average and maximum latency plus Jain's fairness index over
// per-source mean latencies on an 8x8 mesh near saturation.
type FairnessResult struct {
	Policies []string
	Avg      []float64
	P99      []float64
	Max      []float64
	Jain     []float64
}

// Fairness runs the equality-of-service comparison. Beyond the paper's
// Fig. 9 policies it includes the related-work arbiters implemented as
// extensions (wavefront, ping-pong, slack-aware).
func Fairness(sc Scale) *FairnessResult {
	policies := []struct {
		name string
		mk   func(seed int64) noc.Policy
	}{
		{"round-robin", func(int64) noc.Policy { return arb.NewRoundRobin() }},
		{"islip", func(int64) noc.Policy { return arb.NewISLIP(2) }},
		{"wavefront", func(int64) noc.Policy { return arb.NewWavefront() }},
		{"ping-pong", func(int64) noc.Policy { return arb.NewPingPong() }},
		{"fifo", func(int64) noc.Policy { return arb.NewFIFO() }},
		{"slack-aware", func(int64) noc.Policy { return arb.NewSlackAware() }},
		{"probdist", func(seed int64) noc.Policy {
			return arb.NewProbDist(xrand.New(seed))
		}},
		{"rl-inspired", func(int64) noc.Policy { return core.NamedRule("rl-inspired-8x8") }},
		{"global-age", func(int64) noc.Policy { return arb.NewGlobalAge() }},
	}
	res := &FairnessResult{}
	for _, pp := range policies {
		net, in := UniformMesh(8, 1, sc.Seed+4).Build(pp.mk(sc.Seed + 3))
		traffic.Run(net, in, sc.WarmupCycles, sc.MeasureCycles)
		st := net.Stats()
		res.Policies = append(res.Policies, pp.name)
		res.Avg = append(res.Avg, st.Latency.Mean())
		res.P99 = append(res.P99, stats.Percentile(st.SourceMeanLatencies(), 99))
		res.Max = append(res.Max, st.Latency.Max())
		res.Jain = append(res.Jain, st.FairnessIndex())
	}
	return res
}

// Render formats the fairness table.
func (r *FairnessResult) Render() string {
	var b strings.Builder
	b.WriteString("Equality of service (8x8 mesh, uniform random near saturation):\n")
	rows := make([][]string, len(r.Policies))
	for i := range r.Policies {
		rows[i] = []string{
			r.Policies[i],
			fmt.Sprintf("%.1f", r.Avg[i]),
			fmt.Sprintf("%.1f", r.P99[i]),
			fmt.Sprintf("%.0f", r.Max[i]),
			fmt.Sprintf("%.4f", r.Jain[i]),
		}
	}
	b.WriteString(viz.Table(
		[]string{"policy", "avg latency", "p99 source latency", "max latency", "Jain index"},
		rows))
	b.WriteString("Jain index of 1.0 = every source sees the same mean latency.\n")
	return b.String()
}

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

// BufferAblationResult quantifies the DESIGN.md decision that shallow VC
// buffers create the paper's regime: the FIFO-vs-global-age latency gap as a
// function of per-VC buffer capacity. With deep buffers, message-level
// arbitration quality stops mattering (mean latency is fixed by throughput
// and backlog); with one- or two-message buffers, head-of-line blocking makes
// throughput policy-dependent and the gap opens.
type BufferAblationResult struct {
	Caps []int
	// FIFOOverGA[i] is FIFO's average latency divided by global-age's at
	// Caps[i].
	FIFOOverGA []float64
	FIFOAvg    []float64
	GAAvg      []float64
}

// BufferAblation sweeps buffer capacity on the 8x8 mesh at the Fig. 5 rate.
func BufferAblation(sc Scale) *BufferAblationResult {
	res := &BufferAblationResult{Caps: []int{1, 2, 4, 8}}
	for _, cap := range res.Caps {
		run := func(p noc.Policy) float64 {
			net, in := UniformMesh(8, cap, sc.Seed+21).Build(p)
			return traffic.Run(net, in, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
		}
		fifo := run(arb.NewFIFO())
		ga := run(arb.NewGlobalAge())
		res.FIFOAvg = append(res.FIFOAvg, fifo)
		res.GAAvg = append(res.GAAvg, ga)
		res.FIFOOverGA = append(res.FIFOOverGA, fifo/ga)
	}
	return res
}

// Render formats the sweep.
func (r *BufferAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Design ablation: VC buffer capacity vs policy sensitivity (8x8 mesh)\n")
	rows := make([][]string, len(r.Caps))
	for i := range r.Caps {
		rows[i] = []string{
			fmt.Sprintf("%d", r.Caps[i]),
			fmt.Sprintf("%.1f", r.FIFOAvg[i]),
			fmt.Sprintf("%.1f", r.GAAvg[i]),
			fmt.Sprintf("%.3f", r.FIFOOverGA[i]),
		}
	}
	b.WriteString(viz.Table(
		[]string{"buffer cap (msgs)", "FIFO avg", "Global-age avg", "FIFO/GA"}, rows))
	b.WriteString("Shallow buffers create the contention regime where arbitration separates policies.\n")
	return b.String()
}

// TieBreakAblationResult quantifies the rotating select-max tie-break
// (DESIGN.md): under hotspot congestion, Algorithm 2 with a fixed tie-break
// starves tied saturated-age messages, while the rotating scan bounds
// waiting.
type TieBreakAblationResult struct {
	// MaxAgeFixed and MaxAgeRotating are the largest local ages among queued
	// messages when injection stops.
	MaxAgeFixed, MaxAgeRotating int64
	AvgFixed, AvgRotating       float64
}

// fixedTieBreakAPU wraps the Algorithm 2 priority with a non-rotating
// (first-max) select, isolating the tie-break as the only difference.
type fixedTieBreakAPU struct{ p *core.RulePolicy }

func (f fixedTieBreakAPU) Name() string { return "rl-inspired(fixed-tiebreak)" }

func (f fixedTieBreakAPU) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	best, bestP := 0, f.p.Priority(ctx.Cycle, cands[0].Port, cands[0].Msg)
	for i, c := range cands[1:] {
		if p := f.p.Priority(ctx.Cycle, c.Port, c.Msg); p > bestP {
			best, bestP = i+1, p
		}
	}
	return best
}

// TieBreakAblation compares fixed and rotating tie-breaks under saturated
// hotspot traffic, where 5-bit priorities tie constantly.
func TieBreakAblation(sc Scale) *TieBreakAblationResult {
	run := func(p noc.Policy) (int64, float64) {
		net := hotspotRun(p, 0.5, 0.3, sc.Seed+23, sc)
		return MaxQueuedLocalAge(net), net.Stats().Latency.Mean()
	}
	res := &TieBreakAblationResult{}
	res.MaxAgeFixed, res.AvgFixed = run(fixedTieBreakAPU{p: core.NamedRule("rl-inspired")})
	res.MaxAgeRotating, res.AvgRotating = run(core.NamedRule("rl-inspired"))
	return res
}

// Render formats the comparison.
func (r *TieBreakAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Design ablation: select-max tie-break under saturated hotspot traffic\n")
	rows := [][]string{
		{"fixed (first max)", fmt.Sprintf("%d", r.MaxAgeFixed), fmt.Sprintf("%.1f", r.AvgFixed)},
		{"rotating scan", fmt.Sprintf("%d", r.MaxAgeRotating), fmt.Sprintf("%.1f", r.AvgRotating)},
	}
	b.WriteString(viz.Table([]string{"tie-break", "max queued local age", "avg latency"}, rows))
	b.WriteString("With 5-bit priorities, saturated ages tie; a fixed tie-break starves the loser.\n")
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"mlnoc/internal/core"
	"mlnoc/internal/synth"
	"mlnoc/internal/viz"
)

// Table3Result holds the hardware-cost reports for the three Table 3 designs.
type Table3Result struct {
	Reports []synth.Report
}

// Table3 evaluates the gate-level cost model for the agent NN engine, the
// round-robin arbiter and the proposed arbiter in a 6-port, 7-VC router at
// the 32nm-class node; the proposed arbiter runs "rl-inspired", the rule
// the figures run.
func Table3() *Table3Result {
	return &Table3Result{Reports: synth.Table3(core.NamedRule("rl-inspired").Rule())}
}

// Render formats the reports as the paper's Table 3.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: synthesis results (gate-level cost model, 32nm-class)\n")
	rows := make([][]string, len(r.Reports))
	for i, rep := range r.Reports {
		rows[i] = []string{
			rep.Name,
			fmt.Sprintf("%.2f", rep.LatencyNS),
			fmt.Sprintf("%.4f", rep.AreaMM2),
			fmt.Sprintf("%.2f", rep.PowerMW),
			fmt.Sprintf("%d", rep.Gates),
		}
	}
	b.WriteString(viz.Table(
		[]string{"design", "latency (ns)", "area (mm2)", "power (mW)", "NAND2-eq gates"}, rows))
	nn, rr, prop := r.Reports[0], r.Reports[1], r.Reports[2]
	fmt.Fprintf(&b, "NN vs proposed: %.1fx latency, %.0fx area, %.0fx power\n",
		nn.LatencyNS/prop.LatencyNS, nn.AreaMM2/prop.AreaMM2, nn.PowerMW/prop.PowerMW)
	fmt.Fprintf(&b, "proposed vs round-robin: %.1fx latency, %.1fx area, %.1fx power\n",
		prop.LatencyNS/rr.LatencyNS, prop.AreaMM2/rr.AreaMM2, prop.PowerMW/rr.PowerMW)
	return b.String()
}

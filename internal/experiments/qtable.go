package experiments

import (
	"context"
	"fmt"
	"strings"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/viz"
)

// QTableResult quantifies the paper's Section 2.2 argument against tabular
// Q-learning for NoC arbitration: the table grows with every distinct traffic
// situation while the DQL network's parameter count stays fixed, and at an
// equal training budget the table generalizes worse.
type QTableResult struct {
	// TrainCycles is the shared training budget.
	TrainCycles int64
	// States and TableBytes describe the trained Q-table; growth checkpoints
	// record distinct-state counts at training fractions 25/50/75/100%.
	States     int
	TableBytes int64
	GrowthAt   [4]int
	// DQLParams is the MLP's fixed parameter count.
	DQLParams int
	// Latencies of the frozen policies plus baselines on identical traffic.
	TabularLatency, DQLLatency, FIFOLatency, GlobalAgeLatency float64
}

// QTableStudy trains a tabular agent and the DQL agent on the same 4x4 mesh
// traffic for the same number of cycles and compares table growth and
// evaluation latency.
func QTableStudy(sc Scale) *QTableResult {
	mesh := UniformMesh(4, 1, sc.Seed+1)
	cfg := meshTrainSpec(mesh, sc)
	cfg.Epochs = max(4, cfg.Epochs)
	res := &QTableResult{TrainCycles: int64(cfg.Epochs) * cfg.EpochCycles}

	// Train the tabular agent, sampling table growth at quarter points.
	tab := core.NewTabularAgent(core.MeshSpec(3), sc.Seed)
	_, step := mesh.Start(tab)
	total := res.TrainCycles
	for i := int64(0); i < total; i++ {
		step()
		for q := 0; q < 4; q++ {
			if i == (total*int64(q+1))/4-1 {
				res.GrowthAt[q] = tab.Table.States()
			}
		}
	}
	res.States = tab.Table.States()
	res.TableBytes = tab.Table.Bytes()
	tab.Freeze()

	// Train the DQL agent with the same budget.
	tr, _ := core.Train(context.TODO(), cfg) // cannot fail: Env set, TODO never cancels
	tr.Agent.Freeze()
	res.DQLParams = tr.Agent.Net().NumParams()

	// Paired evaluation.
	res.TabularLatency = mesh.Evaluate(tab, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
	res.DQLLatency = mesh.Evaluate(tr.Agent, sc.WarmupCycles, sc.MeasureCycles).AvgLatency
	res.FIFOLatency = mesh.Evaluate(arb.NewFIFO(), sc.WarmupCycles, sc.MeasureCycles).AvgLatency
	res.GlobalAgeLatency = mesh.Evaluate(arb.NewGlobalAge(), sc.WarmupCycles, sc.MeasureCycles).AvgLatency
	return res
}

// Render formats the comparison.
func (r *QTableResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 2.2: tabular Q-learning vs deep Q-learning (4x4 mesh)\n")
	fmt.Fprintf(&b, "training budget: %d cycles\n\n", r.TrainCycles)
	fmt.Fprintf(&b, "Q-table growth (distinct discretized states at 25/50/75/100%% of training):\n")
	fmt.Fprintf(&b, "  %d -> %d -> %d -> %d states (%.1f KiB; still growing)\n",
		r.GrowthAt[0], r.GrowthAt[1], r.GrowthAt[2], r.GrowthAt[3],
		float64(r.TableBytes)/1024)
	fmt.Fprintf(&b, "DQL network: %d parameters (fixed)\n\n", r.DQLParams)
	rows := [][]string{
		{"q-table", fmt.Sprintf("%.2f", r.TabularLatency)},
		{"dql-nn", fmt.Sprintf("%.2f", r.DQLLatency)},
		{"fifo", fmt.Sprintf("%.2f", r.FIFOLatency)},
		{"global-age", fmt.Sprintf("%.2f", r.GlobalAgeLatency)},
	}
	b.WriteString(viz.Table([]string{"policy", "avg latency"}, rows))
	b.WriteString("The table only knows states it has visited; the network interpolates.\n")
	return b.String()
}

// Trainagent: the paper's methodology end to end on a small mesh — train the
// deep Q-learning arbitration agent under uniform-random traffic, inspect the
// weight heatmap the way the paper's architects did (Fig. 4), and evaluate
// the frozen network against the classical arbiters.
//
//	go run ./examples/trainagent
package main

import (
	"context"
	"fmt"
	"log"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/noc"
	"mlnoc/internal/viz"
)

func main() {
	// The Section 3.2 environment: a 4x4 mesh of single-message buffers under
	// uniform-random traffic, seeded apart from the agent.
	const seed = 1
	mesh := experiments.UniformMesh(4, 1, seed+1)
	cfg := core.TrainSpec{
		Env:         mesh,
		Epochs:      40,
		EpochCycles: 1000,
		Seed:        seed,
	}
	fmt.Printf("training a %dx%d mesh agent for %d cycles...\n\n",
		mesh.Width, mesh.Height, int64(cfg.Epochs)*cfg.EpochCycles)

	tr, err := core.Train(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < len(tr.Curve); i += 5 {
		fmt.Printf("  epoch %2d: avg latency %.1f cycles\n", i+1, tr.Curve[i])
	}

	// Interpret the weights (Section 3.2): which features does the network
	// lean on?
	tr.Agent.Freeze()
	h := core.NewHeatmap(tr.Spec, tr.Agent.Net())
	fmt.Println("\nmean |weight| per input (darker = larger):")
	fmt.Print(viz.Heatmap(h.RowLabels, h.ColLabels, h.Abs))
	fmt.Println("feature importance:")
	for _, row := range h.RankedRows() {
		fmt.Printf("  %-14s %.4f\n", h.RowLabels[row], h.RowMean(row))
	}

	// Evaluate the frozen network ("NN") against the classics.
	fmt.Println("\nevaluation (same traffic for every policy):")
	for _, p := range []noc.Policy{
		arb.NewFIFO(),
		tr.Agent,
		core.NamedRule("rl-inspired-4x4"),
		arb.NewGlobalAge(),
	} {
		res := mesh.Evaluate(p, 1000, 6000)
		fmt.Printf("  %-16s avg latency %.2f\n", p.Name(), res.AvgLatency)
	}
	fmt.Println("\nThe heatmap is the bridge: local age and hop count dominate, which is")
	fmt.Println("exactly what the paper's human architects distilled into the RL-inspired")
	fmt.Println("priority function.")
}

// Apuworkload: run the paper's multi-program APU scenario — four applications
// from the Table 1 catalog, one per chip quadrant — under several arbitration
// policies and compare program execution times (the Fig. 11 mixed-workload
// experiment in miniature).
//
//	go run ./examples/apuworkload
package main

import (
	"fmt"
	"log"

	"mlnoc/internal/apu"
	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/synfull"
)

func main() {
	// A 2L2H mix: two low-injection and two high-injection applications.
	models, err := synfull.Mix(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	var quadrants [4]*synfull.Model
	copy(quadrants[:], models)

	fmt.Println("APU chip: 8x8 GPU mesh, 64 CUs, 4 CPU clusters")
	fmt.Print("quadrant assignment:")
	for q, m := range quadrants {
		fmt.Printf("  Q%d=%s", q, m.Name)
	}
	fmt.Println()
	fmt.Println()

	policies := []noc.Policy{
		arb.NewRoundRobin(),
		arb.NewFIFO(),
		core.NamedRule("rl-inspired"),
		arb.NewGlobalAge(),
	}
	var base float64
	for _, p := range policies {
		res := apu.RunWorkload(apu.Config{}, p, quadrants, apu.RunnerConfig{
			OpScale: 0.25,
			Seed:    11,
		})
		if !res.Finished {
			log.Fatalf("%s: workload did not finish", p.Name())
		}
		if base == 0 {
			base = res.Avg
		}
		fmt.Printf("%-14s avg exec %6.0f cycles  tail %6.0f  noc latency %6.1f  (%.3fx RR)\n",
			p.Name(), res.Avg, res.Tail, res.AvgLatency, res.Avg/base)
	}
	fmt.Println("\nExecution time — not just message latency — is the paper's metric:")
	fmt.Println("each CU stalls when its outstanding-request window fills, so slow")
	fmt.Println("arbitration feeds directly back into program completion time.")
}

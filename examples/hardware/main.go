// Hardware: the last mile of the paper's methodology — from Algorithm 2 to
// logic gates (Fig. 8) to synthesis costs (Table 3).
//
// It builds the P-block netlist of every distilled rule in core's table gate
// by gate, proves each bit-exact against the priority the simulator
// arbitrates by across the entire input space (exiting non-zero on any
// mismatch), sizes the select-max tree for a full 6-port/7-VC router, and
// prints the Table 3 cost comparison against a round-robin arbiter and an
// INT8 inference engine for the trained network.
//
//	go run ./examples/hardware
package main

import (
	"fmt"
	"os"

	"mlnoc/internal/core"
	"mlnoc/internal/synth"
)

func main() {
	// Every input a P-block encodes: 5-bit local age, 4-bit hop count (cut
	// to the rule's field), six input ports and three message classes.
	failed := false
	for _, p := range core.Rules {
		r := p.Rule()
		pblock := synth.BuildPBlock(r)
		mismatches := 0
		for la := 0; la < 32; la++ {
			for hc := 0; hc < 16; hc++ {
				for port := 0; port < 6; port++ {
					for class := 0; class < 3; class++ {
						if synth.PBlockPriority(pblock, r, la, hc, port, class) != r.Priority(la, hc, port, class) {
							mismatches++
						}
					}
				}
			}
		}
		fmt.Printf("%-27s P-block: %2d gates, depth %d, %d/%d mismatches\n",
			p.Name(), pblock.NumGates(), pblock.Depth(), mismatches, 32*16*6*3)
		failed = failed || mismatches > 0
	}
	fmt.Println("(and-threshold: the paper's one-AND-gate age test, LA >= 24 for LA > 24)")

	// The select-max tree over all 42 input buffers of a 6-port router.
	selmax := synth.BuildSelectMax(42, 5)
	fmt.Printf("\n42-way select-max tree: %d gates, depth %d\n\n",
		selmax.NumGates(), selmax.Depth())

	// Exercise the tree on a sample arbitration.
	pris := make([]int, 42)
	pris[17], pris[30], pris[5] = 29, 31, 29
	idx, max := synth.SelectMaxEval(selmax, pris)
	fmt.Printf("sample arbitration: buffer %d wins with priority %d\n\n", idx, max)

	// Table 3: the cost model for the three designs.
	fmt.Println("Table 3 (gate-level cost model, 32nm-class):")
	for _, rep := range synth.Table3() {
		fmt.Printf("  %s\n", rep)
	}
	fmt.Println("\nThe distilled arbiter fits a router cycle; the network it was distilled")
	fmt.Println("from does not — the paper's closing argument in three lines of output.")
	if failed {
		fmt.Fprintln(os.Stderr, "hardware: a P-block disagrees with its rule")
		os.Exit(1)
	}
}

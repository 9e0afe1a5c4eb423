// Hardware: the last mile of the paper's methodology — from Algorithm 2 to
// logic gates (Fig. 8) to synthesis costs (Table 3).
//
// It builds the P-block netlist of every distilled rule in core's table gate
// by gate, proves each bit-exact against the priority the simulator
// arbitrates by across the entire input space, sizes the select-max tree for
// a full 6-port/7-VC router and runs one tied arbitration through it from
// two scan starts, each of which must grant the first highest priority at or
// after the start (exiting non-zero on any mismatch), and prints the Table 3
// cost comparison against a round-robin arbiter and an INT8 inference engine
// for the trained network.
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

	// The select-max tree over all 42 input buffers of a 6-port router, and
	// at width 1 the round-robin arbiter whose pointer is its start.
	selmax := synth.BuildSelectMax(42, 5)
	rr := synth.BuildSelectMax(42, 1)
	fmt.Printf("\n42-way select-max tree: %d gates, depth %d (width 1, round-robin: %d gates, depth %d)\n",
		selmax.NumGates(), selmax.Depth(), rr.NumGates(), rr.Depth())

	// One arbitration with a three-way tie at 29, from two scan starts: the
	// first 29 at or after the start wins, wrapping past buffer 41.
	pris := make([]int, 42)
	pris[5], pris[17], pris[30] = 29, 29, 29
	for _, c := range []struct{ start, want int }{{10, 17}, {31, 5}} {
		idx, max := synth.SelectMaxEval(selmax, pris, c.start)
		fmt.Printf("sample arbitration from start %d: buffer %d wins with priority %d (want %d)\n",
			c.start, idx, max, c.want)
		failed = failed || idx != c.want || max != 29
	}

	// Table 3: the cost model for the three designs, the proposed arbiter
	// running the rule the figures run.
	fmt.Println("\nTable 3 (gate-level cost model, 32nm-class):")
	for _, rep := range synth.Table3(core.NamedRule("rl-inspired").Rule()) {
		fmt.Printf("  %s\n", rep)
	}
	fmt.Println("\nThe distilled arbiter fits a router cycle; the network it was distilled")
	fmt.Println("from does not — the paper's closing argument in three lines of output.")
	if failed {
		fmt.Fprintln(os.Stderr, "hardware: a netlist disagrees with the arbiter the simulator runs")
		os.Exit(1)
	}
}

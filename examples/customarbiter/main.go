// Customarbiter: implement your own arbitration policy against the noc.Policy
// interface and benchmark it against the library's arbiters under an
// adversarial hotspot pattern.
//
// The example policy ("oldest-plus-longest") favors messages that are both
// old at the router and far from home — a hand-rolled cousin of the paper's
// RL-inspired priorities.
//
//	go run ./examples/customarbiter
package main

import (
	"fmt"

	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// oldestPlusLongest is a user-defined policy: priority = local age + number
// of hops still ahead of the message. Everything a policy needs arrives in
// the candidate list; no simulator internals required.
type oldestPlusLongest struct{}

func (oldestPlusLongest) Name() string { return "oldest-plus-longest" }

func (oldestPlusLongest) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	best, bestScore := 0, int64(-1)
	for i, c := range cands {
		remaining := int64(c.Msg.Distance - c.Msg.HopCount)
		score := c.Msg.LocalAge(ctx.Cycle) + remaining
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

func main() {
	policies := []noc.Policy{
		arb.NewRoundRobin(),
		arb.NewFIFO(),
		oldestPlusLongest{},
		core.NamedRule("rl-inspired-8x8"),
		arb.NewGlobalAge(),
	}

	fmt.Println("8x8 mesh, hotspot traffic (20% of messages to two hot nodes)")
	fmt.Println()
	for _, p := range policies {
		net, in := traffic.Mesh{
			Config: noc.Config{Width: 8, Height: 8, VCs: 3, BufferCap: 1},
			Pattern: traffic.Hotspot{
				Spots:    []int{27, 36}, // two central nodes
				Fraction: 0.2,
			},
			Rate: 0.07,
			Seed: 7,
		}.Build(p)

		res := traffic.Run(net, in, 1000, 6000)
		fmt.Printf("%-20s avg %7.2f   p-max %6.0f   delivered %d\n",
			p.Name(), res.AvgLatency, res.MaxLatency, res.Delivered)
	}
}

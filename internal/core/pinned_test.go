package core

import (
	"math"
	"math/rand"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/nn"
	"mlnoc/internal/synfull"
)

// TestFrozenEpisodePinned holds whole bfs episodes arbitrated by an
// evaluation agent over seeded weights to the ExecResult and decision count
// they produced while every layer-0 forward pass walked Layer.W row-major: the
// values below were recorded on that code (commit 91ff88c) and are compared as
// literals, so a Q-value that differs in one bit anywhere in an episode shows
// up as a changed grant, and from there in the cycle count or a latency bit.
func TestFrozenEpisodePinned(t *testing.T) {
	m, err := synfull.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	pinned := []struct {
		seed       int64
		completion [4]int64
		cycles     int64
		decisions  int64
		latency    uint64 // math.Float64bits(AvgLatency)
		avg, tail  uint64
	}{
		{17, [4]int64{812, 775, 717, 809}, 813, 3959, 0x405a6cec120041d8, 0x4088520000000000, 0x4089600000000000},
		{42, [4]int64{599, 660, 832, 718}, 833, 4113, 0x4057ef9e2b9a76fe, 0x4085f20000000000, 0x408a000000000000},
	}
	spec := APUSpec()
	for _, p := range pinned {
		net := nn.New([]int{spec.InputSize(), 42, spec.ActionSize()},
			[]nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rand.New(rand.NewSource(p.seed+1000)))
		agent := NewAgentWithNet(spec, net, p.seed)
		res := apu.RunWorkload(apu.Config{}, agent, apu.Homogeneous(m), apu.RunnerConfig{OpScale: 0.02, Seed: p.seed})
		if !res.Finished || res.Completion != p.completion || res.Cycles != p.cycles || agent.Decisions() != p.decisions ||
			math.Float64bits(res.AvgLatency) != p.latency || math.Float64bits(res.Avg) != p.avg || math.Float64bits(res.Tail) != p.tail {
			t.Errorf("seed %d: {%d, %#v, %d, %d, %#x, %#x, %#x}, pinned {%d, %#v, %d, %d, %#x, %#x, %#x}",
				p.seed, p.seed, res.Completion, res.Cycles, agent.Decisions(),
				math.Float64bits(res.AvgLatency), math.Float64bits(res.Avg), math.Float64bits(res.Tail),
				p.seed, p.completion, p.cycles, p.decisions, p.latency, p.avg, p.tail)
		}
	}
}

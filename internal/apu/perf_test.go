package apu

import (
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/synfull"
)

func bfsModels(b *testing.B) [4]*synfull.Model {
	m, err := synfull.ByName("bfs")
	if err != nil {
		b.Fatal(err)
	}
	return Homogeneous(m)
}

// BenchmarkHotNewSystem is the set-up of one episode alone: build the 8x8
// APU network and wire its 136 endpoints.
func BenchmarkHotNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSystem(Config{}, 1)
	}
}

// BenchmarkHotNewRunner is one relaunch on a live system: reset four workload
// instances and 68 endpoints, re-seed 140 streams.
func BenchmarkHotNewRunner(b *testing.B) {
	sys := NewSystem(Config{}, 1)
	models := bfsModels(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRunner(sys, models, RunnerConfig{OpScale: 0.01, Seed: int64(i)})
	}
}

// BenchmarkHotEpisodeBfs001 is one whole short episode as a sweep cell runs
// it — build the system, launch, run to completion — under global-age, so
// what it times is the simulator and its set-up with no agent in the loop.
func BenchmarkHotEpisodeBfs001(b *testing.B) {
	models := bfsModels(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunWorkload(Config{}, arb.NewGlobalAge(), models, RunnerConfig{OpScale: 0.01, Seed: 17})
		if !res.Finished {
			b.Fatal("episode did not finish")
		}
	}
}

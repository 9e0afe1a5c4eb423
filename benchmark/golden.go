package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"mlnoc/internal/nn"
)

// The repository holds no reference hardware results, so the simulator's
// model is unvalidated and the benchmark gives no error figure. What it can
// check is that a change meant only to speed the simulator up left every
// simulated statistic identical: golden.json holds, for the golden seeds, the
// State of each simulator workload at every checkpoint of a default-length
// run. Other seeds, and platforms whose floating point rounds differently,
// fall back to the checks that need no golden (conservation, steady state,
// every op equal to the first, traced equal to untraced).

//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds -update-golden records.
var goldenSeeds = []int64{17, 42}

const goldenPath = "benchmark/golden.json"

// goldenFile maps workload name, then goldenKey, to checkpoint states.
type goldenFile map[string]map[string][]string

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenKey names the conditions under which a recorded state is expected to
// repeat bit for bit.
func goldenKey(w *workload, seed int64) string {
	key := fmt.Sprintf("%s/seed%d", runtime.GOARCH, seed)
	if w.FixedInputs {
		key = runtime.GOARCH + "/any"
	}
	if w.KernelKeyed {
		key += "/" + nnKernel()
	}
	return key
}

func (g goldenFile) lookup(w *workload, seed int64) []string {
	return g[w.Name][goldenKey(w, seed)]
}

// nnKernel reports which batched-inference kernel nn.ForwardBatchFast
// selected on this host: "fma" (the AVX2+FMA microkernel, whose fused
// rounding differs from Forward's by a few ULPs) or "portable" (bit-identical
// to ForwardBatch). rl.TrainBatch bootstraps through it, so training
// trajectories are pinned per kernel.
func nnKernel() string {
	rng := rand.New(rand.NewSource(1))
	net := nn.New([]int{504, 42, 42}, []nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rng)
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, 504)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	exact := make([][]float64, len(xs))
	for i, row := range net.ForwardBatch(xs) {
		exact[i] = append([]float64(nil), row...)
	}
	for i, row := range net.ForwardBatchFast(xs) {
		for j, v := range row {
			if v != exact[i][j] {
				return "fma"
			}
		}
	}
	return "portable"
}

// updateGolden re-records golden.json: every simulator workload, every golden
// seed, a default-length run. Entries for other platforms are kept.
func updateGolden(seconds int) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			rep, states, err := measure(w, seed, seconds, nil)
			if err != nil {
				return err
			}
			if !rep.correct() {
				return fmt.Errorf("%s seed %d failed its own checks: %v", w.Name, seed, rep.Failures)
			}
			if len(states) == 0 {
				continue
			}
			if g[w.Name] == nil {
				g[w.Name] = map[string][]string{}
			}
			g[w.Name][goldenKey(w, seed)] = states
			fmt.Printf("recorded %s %s: %d states\n", w.Name, goldenKey(w, seed), len(states))
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

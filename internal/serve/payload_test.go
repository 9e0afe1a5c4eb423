package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"mlnoc/internal/cliutil/clitest"
	"mlnoc/internal/experiments"
)

// TestEveryJobHasAnEntry: every job a spec may name runs an
// experiments.Table entry.
func TestEveryJobHasAnEntry(t *testing.T) {
	var specs []string
	for _, typ := range jobTypes {
		if typ != TypeSweep {
			specs = append(specs, fmt.Sprintf(`{"type":%q}`, typ))
		}
	}
	for _, exp := range sweepExperiments {
		specs = append(specs, fmt.Sprintf(`{"type":"sweep","sweep":{"experiment":%q}}`, exp))
	}
	for _, js := range specs {
		if name := mustParse(t, js).entry(); name == "" {
			t.Errorf("%s maps to no entry", js)
		} else if _, ok := experiments.Lookup(name); !ok {
			t.Errorf("%s maps to %q, which experiments.Table lacks", js, name)
		}
	}
}

// TestExecutePayloadsPinned holds one tiny job of every shape Execute runs to
// the sha256 of its payload, recorded before Execute became a lookup into
// experiments.Table. A payload that carries trained weights is pinned for the
// amd64-fma training arithmetic only (clitest.Platform), as cmd/trainarb's
// goldens are.
func TestExecutePayloadsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) simulations and trainings")
	}
	const apu = `"scale":{"op_scale":0.05,"train_cycles":1500}`
	const mesh = `"scale":{"train_cycles":2000,"warmup_cycles":200,"measure_cycles":400}`
	trained := clitest.Platform() == "amd64-fma"
	for _, c := range []struct {
		name, spec string
		weights    bool
		sum        string
	}{
		{"exec", `{"type":"sweep","sweep":{"experiment":"exec"},` + apu + `}`, false,
			"31d7dbb6d3470cb22601062de1cca5b149ddd4ed661bc6c1e39a8b2798c53844"},
		{"mix-nn", `{"type":"sweep","sweep":{"experiment":"mix","train_nn":true},` + apu + `}`, true,
			"ae0025aeae3d4c26e1f28db07e9a28752d4b746c05b44c820662f6bc7ccfe49c"},
		{"ablation", `{"type":"sweep","sweep":{"experiment":"ablation"},` + apu + `}`, false,
			"f729526e69890879bd7fd577bdb424ce9889d2ce85012be182a2b0ea81d7044c"},
		{"fault", `{"type":"fault","fault":{"rates":[0,0.1]},"scale":{"op_scale":0.05,"warmup_cycles":200,"measure_cycles":400}}`, false,
			"51e7a6dbfbd35a0c55aca0f93302a146f69f88e2ec1fb6bf2f0b75d7bdb232c1"},
		{"quant", `{"type":"quant",` + mesh + `}`, true,
			"5bc07d988d4eb22a0144f31e3d71360a918750754c9808c6850a33c17fddc6b9"},
		{"mesh", `{"type":"mesh","mesh":{"sizes":[4,5]},"scale":{"warmup_cycles":100,"measure_cycles":300}}`, false,
			"e4d09cd96a9b141562196b6f074dc75d1c818a814404d44631dbbd0af87cd9ee"},
		{"train", `{"type":"train",` + apu + `}`, true,
			"09649630fa87514eedaf1fc1eb231c9b37dd03566b12bfaebf9643949c8b8784"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.weights && !trained {
				t.Skipf("payload carries trained weights; pinned for amd64-fma, not %s", clitest.Platform())
			}
			out, err := Execute(context.Background(), mustParse(t, c.spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != c.sum {
				t.Errorf("payload sha256 %s, want %s\n%s", got, c.sum, out)
			}
		})
	}
}

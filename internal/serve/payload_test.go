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
// the sha256 of its payload. Every field but "hash" was recorded before
// Execute became a lookup into experiments.Table. A payload that carries
// trained weights is pinned for the amd64-fma training arithmetic only
// (clitest.Platform), as cmd/trainarb's goldens are.
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
			"95b45020f0338f82d91dd0bfd8d70d70c8acc42c631dbec384443b711b09a068"},
		{"mix-nn", `{"type":"sweep","sweep":{"experiment":"mix","train_nn":true},` + apu + `}`, true,
			"be359f9f506342e9fe51f4429140548d13800c7eb68e5badd342d3ecccb257ee"},
		{"ablation", `{"type":"sweep","sweep":{"experiment":"ablation"},` + apu + `}`, false,
			"60941f01569ca342176af5687dcdb45f65e455819333d095bd5da5a11ce30da6"},
		{"fault", `{"type":"fault","fault":{"rates":[0,0.1]},"scale":{"op_scale":0.05,"warmup_cycles":200,"measure_cycles":400}}`, false,
			"01e7784bb20e8a4df709cfd87f45ff5c2e3ed6a636bf7346d4dc111320ff9a78"},
		{"quant", `{"type":"quant",` + mesh + `}`, true,
			"93280bcd533681d52d639eeba3b861cc355e3de83460c271ad147a75b260707f"},
		{"mesh", `{"type":"mesh","mesh":{"sizes":[4,5]},"scale":{"warmup_cycles":100,"measure_cycles":300}}`, false,
			"90c58744adc29c49a3db431ed5bccb7e43e8348f4a84523d3ddf233ccdcdb348"},
		{"train", `{"type":"train",` + apu + `}`, true,
			"1f8b46b2397d49ffa58cdee1a7946becd9b43fe803aba1e0dd4d9090a8b869b7"},
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

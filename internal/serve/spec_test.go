package serve

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, js string) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(js))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", js, err)
	}
	return spec
}

// Reordering JSON keys spells the same job, so it must produce the same hash.
func TestHashIgnoresKeyOrder(t *testing.T) {
	a := mustParse(t, `{"type":"sweep","seed":7,"sweep":{"experiment":"exec","train_nn":true},"scale":{"preset":"quick","op_scale":0.5}}`)
	b := mustParse(t, `{"scale":{"op_scale":0.5,"preset":"quick"},"sweep":{"train_nn":true,"experiment":"exec"},"seed":7,"type":"sweep"}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("reordered keys changed hash:\n%s\n%s", a.Hash(), b.Hash())
	}
}

// Spelling a default explicitly is the same job as omitting it.
func TestHashDefaultVsExplicit(t *testing.T) {
	cases := []struct{ name, implicit, explicit string }{
		{"quant defaults", `{"type":"quant"}`,
			`{"type":"quant","seed":1,"quant":{"size":4},"scale":{"preset":"quick"}}`},
		{"fault default rates", `{"type":"fault"}`,
			`{"type":"fault","fault":{}}`},
		{"sweep default seed", `{"type":"sweep","sweep":{"experiment":"mix"}}`,
			`{"type":"sweep","seed":1,"sweep":{"experiment":"mix","train_nn":false}}`},
		{"scale knob equal to preset", `{"type":"train"}`,
			`{"type":"train","scale":{"preset":"quick","op_scale":0.25}}`},
	}
	for _, tc := range cases {
		a, b := mustParse(t, tc.implicit), mustParse(t, tc.explicit)
		if a.Hash() != b.Hash() {
			t.Errorf("%s: explicit defaults changed hash:\n%s\n%s", tc.name, a.Hash(), b.Hash())
		}
	}
}

// Priority is scheduling metadata, not part of what the job computes.
func TestHashIgnoresPriority(t *testing.T) {
	a := mustParse(t, `{"type":"quant","priority":0}`)
	b := mustParse(t, `{"type":"quant","priority":9}`)
	if a.Hash() != b.Hash() {
		t.Fatal("priority changed the job hash")
	}
}

// Spelling out the default sizes is the same mesh job; sizes, topology and
// seed, which change the outcome, are not.
func TestMeshHashSemantics(t *testing.T) {
	a := mustParse(t, `{"type":"mesh","mesh":{"sizes":[8,16]}}`)
	implicit := mustParse(t, `{"type":"mesh"}`)
	explicit := mustParse(t, `{"type":"mesh","mesh":{"sizes":[8,16,32]}}`)
	if implicit.Hash() != explicit.Hash() {
		t.Fatal("explicit default sizes changed the mesh job hash")
	}
	for _, js := range []string{
		`{"type":"mesh","mesh":{"sizes":[8,16],"torus":true}}`,
		`{"type":"mesh","mesh":{"sizes":[8]}}`,
		`{"type":"mesh","seed":2,"mesh":{"sizes":[8,16]}}`,
	} {
		if mustParse(t, js).Hash() == a.Hash() {
			t.Errorf("%s hashes identically to the base mesh job", js)
		}
	}
}

// Anything that changes what the simulation computes must change the hash.
func TestHashDiffersOnParameters(t *testing.T) {
	base := mustParse(t, `{"type":"sweep","seed":1,"sweep":{"experiment":"exec"}}`)
	variants := []string{
		`{"type":"sweep","seed":2,"sweep":{"experiment":"exec"}}`,
		`{"type":"sweep","seed":1,"sweep":{"experiment":"mix"}}`,
		`{"type":"sweep","seed":1,"sweep":{"experiment":"exec","train_nn":true}}`,
		`{"type":"sweep","seed":1,"sweep":{"experiment":"exec"},"scale":{"preset":"full"}}`,
		`{"type":"sweep","seed":1,"sweep":{"experiment":"exec"},"scale":{"op_scale":0.5}}`,
	}
	seen := map[string]string{base.Hash(): "base"}
	for _, js := range variants {
		h := mustParse(t, js).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s hashes identically to %s", js, prev)
		}
		seen[h] = js
	}
}

// A version bump invalidates every existing cache key.
func TestHashDiffersOnVersions(t *testing.T) {
	spec := mustParse(t, `{"type":"quant"}`)
	if spec.hashWith("mlnoc-engine/next", SchemaVersion) == spec.Hash() {
		t.Error("engine version bump did not change hash")
	}
	if spec.hashWith(EngineVersion, SchemaVersion+1) == spec.Hash() {
		t.Error("schema version bump did not change hash")
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ js, want string }{
		{`{"type":"bake"}`, `type must be one of`},
		{`{"type":"sweep"}`, `need a "sweep" section`},
		{`{"type":"sweep","sweep":{"experiment":"exec"},"sed":3}`, `unknown field`},
		{`{"type":"sweep","sweep":{"experiment":"exec"},"seed":-1}`, `seed must be >= 0, got -1`},
		{`{"type":"sweep","sweep":{"experiment":"warp"}}`, `sweep.experiment must be one of`},
		{`{"type":"fault","fault":{"rates":[0.5,1.5]}}`, `fault.rates[1] must be in [0,1], got 1.5`},
		{`{"type":"quant","quant":{"size":1}}`, `quant.size must be >= 2, got 1`},
		{`{"type":"train","scale":{"preset":"huge"}}`, `scale.preset must be one of`},
		{`{"type":"mesh","mesh":{"sizes":[1]}}`, `mesh.sizes[0] must be >= 2, got 1`},
		{`{"type":"mesh","mesh":{"sizes":[2],"torus":true}}`, `mesh.sizes[0] must be >= 3, got 2`},
		{`{"type":"mesh","mesh":{"sizes":[100000]}}`, `mesh.sizes[0] must be <= 64, got 100000`},
		{`{"type":"mesh","mesh":{"sizes":[2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]}}`, `len(mesh.sizes) must be <= 16, got 17`},
		{`{"type":"quant","quant":{"size":65}}`, `quant.size must be <= 64, got 65`},
		{`{"type":"mesh","mesh":{"shards":4}}`, `unknown field "shards"`},
		{`{"type":"train","scale":{"op_scale":-0.5}}`, `scale.op_scale must be positive`},
		{`{"type":"quant","mesh":{"sizes":[4]}}`, `quant jobs read no "mesh" section`},
		{`{"type":"fault","quant":{"size":8}}`, `fault jobs read no "quant" section`},
		{`{"type":"sweep","sweep":{"experiment":"ablation","train_nn":true}}`, `sweep.experiment with train_nn must be one of [exec mix], got "ablation"`},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.js))
		if err == nil {
			t.Errorf("ParseSpec(%s) accepted an invalid spec", tc.js)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%s) error %q does not contain %q", tc.js, err, tc.want)
		}
	}
}

// The resolved scale is what both the hash and the runner see, so overrides
// must land and the seed must come along.
func TestResolveScale(t *testing.T) {
	spec := mustParse(t, `{"type":"train","seed":9,"scale":{"preset":"full","train_cycles":123}}`)
	sc := spec.ResolveScale()
	if sc.TrainCycles != 123 {
		t.Errorf("TrainCycles = %d, want override 123", sc.TrainCycles)
	}
	if sc.Seed != 9 {
		t.Errorf("Seed = %d, want 9", sc.Seed)
	}
}

package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestMeshJobPayloadDeterministic runs the same mesh job through Execute
// twice and requires byte-identical payloads — the cache contract, which is why
// only the deterministic outcome may be rendered into it.
func TestMeshJobPayloadDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scaling simulations")
	}
	spec := mustParse(t, `{"type":"mesh","mesh":{"sizes":[4,6]},"scale":{"warmup_cycles":100,"measure_cycles":300}}`)
	a, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("mesh payload varies between runs:\n%s\n%s", a, b)
	}
	s := string(a)
	for _, want := range []string{"scaling_invariant.csv", "delivered", "mesh4x4", "mesh6x6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("payload missing %q:\n%s", want, s)
		}
	}
	// Wall-clock fields must not leak into the cached payload.
	for _, forbid := range []string{"msgs_per_sec", "steps_per_sec", "wall_seconds", "steps/sec"} {
		if strings.Contains(s, forbid) {
			t.Fatalf("payload leaks machine-dependent field %q", forbid)
		}
	}
}

// TestMeshJobTorus pins that the torus variant runs end to end and labels its
// rows as a torus.
func TestMeshJobTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (tiny) torus simulation")
	}
	spec := mustParse(t, `{"type":"mesh","mesh":{"sizes":[4],"torus":true},"scale":{"warmup_cycles":100,"measure_cycles":300}}`)
	out, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "torus4x4") {
		t.Fatalf("torus payload missing torus label:\n%s", out)
	}
}

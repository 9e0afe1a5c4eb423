package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/synfull"
	"mlnoc/internal/trace"
)

// TestTelemetryParallelSweep drives a miniature APU policy grid with the full
// telemetry stack attached — obs suite with a watchdog and a tracer per cell,
// one shared OnCell hook — and checks everything lands. Run with -race this is
// the concurrency test for the per-cell hook under parallelForCtx.
func TestTelemetryParallelSweep(t *testing.T) {
	model := synfull.Catalog()[0]
	const cells = 8

	var got []Cell
	snaps := map[string]*obs.Snapshot{}
	tel := &Telemetry{
		Watchdog: &obs.WatchdogConfig{Threshold: 1 << 20},
		Trace:    &trace.Config{SampleEvery: 64},
		OnCell: func(c Cell) {
			got = append(got, c)
			snaps[c.Label] = c.Suite.Snapshot()
		},
	}

	rows := make([]apuRow, cells)
	for i := range rows {
		rows[i] = apuRow{label: fmt.Sprintf("cell-%d", i), apps: apu.Homogeneous(model), seed: int64(i + 1)}
	}
	first := []PolicyFactory{{Name: "first", New: func(int64) noc.Policy { return firstPolicyT{} }}}
	if _, err := apuGrid(context.Background(), Scale{OpScale: 0.02}, tel, rows, first, 0); err != nil {
		t.Fatal(err)
	}

	if len(snaps) != cells {
		t.Fatalf("OnCell saw %d distinct cells, want %d", len(snaps), cells)
	}
	for name, snap := range snaps {
		if snap.Delivered == 0 || snap.TotalGrants() == 0 {
			t.Fatalf("cell %q recorded no traffic: %+v", name, *snap)
		}
		if len(snap.Alerts) != 0 {
			t.Fatalf("cell %q tripped the watchdog: %v", name, snap.Alerts)
		}
	}
	// OnCell was serialized: done counted 1..cells exactly once each.
	if len(got) != cells {
		t.Fatalf("OnCell fired %d times, want %d", len(got), cells)
	}
	for i, c := range got {
		if c.Done != i+1 || c.Total != cells {
			t.Fatalf("cell %d = %s %d/%d; done counter not serialized", i, c.Label, c.Done, c.Total)
		}
		if c.Tracer == nil || c.Tracer.Recorded() == 0 {
			t.Fatalf("cell %s has no tracer events", c.Label)
		}
	}
}

// firstPolicyT is the trivial arbitration rule for telemetry tests.
type firstPolicyT struct{}

func (firstPolicyT) Name() string                                    { return "first" }
func (firstPolicyT) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }

// TestTelemetryNilSafe checks a nil *Telemetry and an empty Telemetry both
// attach nothing without blowing up, that Obs alone attaches a suite with no
// watchdog, and that a sweep's suite samples every 16 cycles.
func TestTelemetryNilSafe(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
	net.SetPolicy(firstPolicyT{})
	var nilTel *Telemetry
	if c := nilTel.attach("x", net); c.Suite != nil || c.Tracer != nil || c.Label != "x" {
		t.Fatalf("nil telemetry attached %+v", c)
	}
	nilTel.cellDone(Cell{Label: "x"}, 1)

	empty := &Telemetry{}
	if c := empty.attach("x", net); c.Suite != nil || c.Tracer != nil {
		t.Fatalf("empty telemetry attached %+v", c)
	}
	empty.cellDone(Cell{Label: "x"}, 1)

	obsOnly := &Telemetry{Obs: true}
	if c := obsOnly.attach("x", net); c.Suite == nil || c.Suite.Watchdog != nil || c.Tracer != nil {
		t.Fatalf("obs-only telemetry attached %+v", c)
	}

	// A watchdog-only suite still attaches (for failure diagnosis), sampling
	// at the sweep's period.
	wdOnly := &Telemetry{Watchdog: &obs.WatchdogConfig{Threshold: 100}}
	c := wdOnly.attach("x", net)
	if c.Suite == nil || c.Suite.Watchdog == nil || c.Tracer != nil {
		t.Fatalf("watchdog-only telemetry attached %+v", c)
	}
	net.Run(160)
	if got := c.Suite.Snapshot().Samples; got != 160/16 {
		t.Fatalf("sweep suite took %d samples in 160 cycles, want %d", got, 160/16)
	}
}

// TestCellFailureDiagnostics checks the did-not-finish panic text includes the
// watchdog's diagnosis when telemetry is attached.
func TestCellFailureDiagnostics(t *testing.T) {
	bare := cellFailure(Cell{Label: "w/p"}, 42)
	if !strings.Contains(bare, "w/p did not finish after 42 cycles") {
		t.Fatalf("bare failure text: %q", bare)
	}
	if strings.Contains(bare, "watchdog") {
		t.Fatalf("bare failure mentions a watchdog it does not have: %q", bare)
	}

	// Freeze a network mid-flight so the attached watchdog trips, then check
	// its summary surfaces in the failure text.
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
	net.SetPolicy(noMatch{})
	suite := obs.Attach(net, obs.SuiteConfig{
		SampleEvery: 1,
		Watchdog:    &obs.WatchdogConfig{Threshold: 20},
	})
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	net.Run(200)

	msg := cellFailure(Cell{Label: "w/p", Suite: suite}, net.Cycle())
	if !strings.Contains(msg, "in flight") {
		t.Fatalf("failure text missing in-flight count: %q", msg)
	}
	if !strings.Contains(msg, "watchdog diagnostics") || !strings.Contains(msg, "livelock") {
		t.Fatalf("failure text missing watchdog diagnosis: %q", msg)
	}
}

// noMatch denies every grant, freezing traffic in place.
type noMatch struct{}

func (noMatch) Name() string                                    { return "nomatch" }
func (noMatch) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }
func (noMatch) Match(_ *noc.MatchContext, reqs []noc.Request) []int {
	out := make([]int, len(reqs))
	for i := range out {
		out[i] = -1
	}
	return out
}

// TestAblationTelemetry runs the real ablation sweep with telemetry attached
// and checks one snapshot lands per cell with the documented labels.
func TestAblationTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	snaps := map[string]*obs.Snapshot{}
	tel := &Telemetry{Obs: true, OnCell: func(c Cell) { snaps[c.Label] = c.Suite.Snapshot() }}
	r, err := AblationCtx(context.Background(), tinyScale(), tel)
	if err != nil {
		t.Fatal(err)
	}
	want := len(r.Workloads) * len(r.Variants)
	if got := len(snaps); got != want {
		t.Fatalf("OnCell kept %d snapshots, want %d", got, want)
	}
	for name, snap := range snaps {
		if !strings.HasPrefix(name, "ablation-") {
			t.Fatalf("unexpected cell label %q", name)
		}
		if snap.Delivered == 0 {
			t.Fatalf("cell %q recorded no deliveries", name)
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/synfull"
)

// TestTelemetryParallelSweep drives a miniature APU policy grid with the full
// telemetry stack attached — shared registry, watchdog per cell, serialized
// progress callback — and checks everything lands. Run with -race this is the
// concurrency test for the obs registry under parallelForCtx.
func TestTelemetryParallelSweep(t *testing.T) {
	model := synfull.Catalog()[0]
	const cells = 8

	var mu sync.Mutex
	var progress []string
	tel := &Telemetry{
		Progress: func(done, total int, label string) {
			mu.Lock()
			defer mu.Unlock()
			progress = append(progress, fmt.Sprintf("%d/%d %s", done, total, label))
		},
		Registry: obs.NewRegistry(),
		Watchdog: &obs.WatchdogConfig{MaxHeadAge: 1 << 20, LivelockWindow: 1 << 20},
	}

	rows := make([]apuRow, cells)
	for i := range rows {
		rows[i] = apuRow{label: fmt.Sprintf("cell-%d", i), apps: apu.Homogeneous(model), seed: int64(i + 1)}
	}
	first := []PolicyFactory{{Name: "first", New: func(int64) noc.Policy { return firstPolicyT{} }}}
	if _, err := apuGrid(context.Background(), Scale{OpScale: 0.02}, tel, rows, first, 0); err != nil {
		t.Fatal(err)
	}

	if got := tel.Registry.Len(); got != cells {
		t.Fatalf("registry has %d snapshots, want %d", got, cells)
	}
	for _, name := range tel.Registry.Names() {
		snap := tel.Registry.Get(name)
		if snap == nil {
			t.Fatalf("registry lost %q", name)
		}
		if snap.Delivered == 0 || snap.TotalGrants() == 0 {
			t.Fatalf("cell %q recorded no traffic: %+v", name, *snap)
		}
		if len(snap.Alerts) != 0 {
			t.Fatalf("cell %q tripped the watchdog: %v", name, snap.Alerts)
		}
	}
	// Progress was serialized: done counted 1..cells exactly once each.
	if len(progress) != cells {
		t.Fatalf("progress fired %d times, want %d", len(progress), cells)
	}
	for i, line := range progress {
		if !strings.HasPrefix(line, fmt.Sprintf("%d/%d ", i+1, cells)) {
			t.Fatalf("progress line %d = %q; done counter not serialized", i, line)
		}
	}
}

// firstPolicyT is the trivial arbitration rule for telemetry tests.
type firstPolicyT struct{}

func (firstPolicyT) Name() string                                    { return "first" }
func (firstPolicyT) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }

// TestTelemetryNilSafe checks a nil *Telemetry and an empty Telemetry both
// disable collection without blowing up.
func TestTelemetryNilSafe(t *testing.T) {
	var nilTel *Telemetry
	if nilTel.suiteConfig() != nil {
		t.Fatal("nil telemetry produced a suite config")
	}
	nilTel.cellDone(1, "x", nil, nil)

	empty := &Telemetry{}
	if empty.suiteConfig() != nil {
		t.Fatal("empty telemetry produced a suite config")
	}
	empty.cellDone(1, "x", nil, nil)

	// Watchdog-only telemetry still attaches a suite (for failure diagnosis).
	wdOnly := &Telemetry{Watchdog: &obs.WatchdogConfig{MaxHeadAge: 100}}
	cfg := wdOnly.suiteConfig()
	if cfg == nil || cfg.Watchdog == nil || cfg.SampleEvery != 16 {
		t.Fatalf("watchdog-only suite config = %+v", cfg)
	}
}

// TestCellFailureDiagnostics checks the did-not-finish panic text includes the
// watchdog's diagnosis when telemetry is attached.
func TestCellFailureDiagnostics(t *testing.T) {
	bare := cellFailure("w/p", apu.ExecResult{Cycles: 42})
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
		Watchdog:    &obs.WatchdogConfig{LivelockWindow: 20, CheckEvery: 10},
	})
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	net.Run(200)

	msg := cellFailure("w/p", apu.ExecResult{Cycles: net.Cycle(), Obs: suite})
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
	tel := &Telemetry{Registry: obs.NewRegistry()}
	r, err := AblationCtx(context.Background(), tinyScale(), tel)
	if err != nil {
		t.Fatal(err)
	}
	want := len(r.Workloads) * len(r.Variants)
	if got := tel.Registry.Len(); got != want {
		t.Fatalf("registry has %d snapshots, want %d", got, want)
	}
	for _, name := range tel.Registry.Names() {
		if !strings.HasPrefix(name, "ablation-") {
			t.Fatalf("unexpected registry label %q", name)
		}
		if tel.Registry.Get(name).Delivered == 0 {
			t.Fatalf("cell %q recorded no deliveries", name)
		}
	}
}

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

// cellSeen is what a test hook saw of one finished sweep cell.
type cellSeen struct {
	label       string
	done, total int
	snap        *obs.Snapshot
	tracer      *trace.Tracer
}

// recordCells returns a hook that attaches an obs suite (with the watchdog
// wd, if non-nil) and, when tc is non-nil, a tracer to every cell, the way
// the commands do, and appends each finished cell to *seen. The appends are
// unlocked: the done calls of a sweep are serialized.
func recordCells(seen *[]cellSeen, wd *obs.WatchdogConfig, tc *trace.Config) CellHook {
	return func(label string, net *noc.Network) func(int, int) {
		suite := obs.Attach(net, obs.SuiteConfig{SampleEvery: 16, Watchdog: wd})
		var tr *trace.Tracer
		if tc != nil {
			tr = trace.Attach(net, *tc)
		}
		return func(done, total int) {
			*seen = append(*seen, cellSeen{label, done, total, suite.Snapshot(), tr})
		}
	}
}

// TestTelemetryParallelSweep drives a miniature APU policy grid with the full
// telemetry stack attached by its hook — an obs suite with a watchdog and a
// tracer per cell — and checks everything lands. Run with -race this is the
// concurrency test for the per-cell hook under parallelForCtx.
func TestTelemetryParallelSweep(t *testing.T) {
	model := synfull.Catalog()[0]
	const cells = 8

	var got []cellSeen
	hook := recordCells(&got, &obs.WatchdogConfig{Threshold: 1 << 20}, &trace.Config{SampleEvery: 64})
	rows := make([]apuRow, cells)
	for i := range rows {
		rows[i] = apuRow{label: fmt.Sprintf("cell-%d", i), apps: apu.Homogeneous(model), seed: int64(i + 1)}
	}
	first := []PolicyFactory{{Name: "first", New: func(int64) noc.Policy { return firstPolicyT{} }}}
	if _, err := apuGrid(context.Background(), Scale{OpScale: 0.02}, &cellCount{hook: hook, total: cells}, rows, first); err != nil {
		t.Fatal(err)
	}

	labels := map[string]bool{}
	for _, c := range got {
		labels[c.label] = true
	}
	if len(labels) != cells {
		t.Fatalf("the hook saw %d distinct cells, want %d", len(labels), cells)
	}
	// done was serialized: it counted 1..cells exactly once each.
	if len(got) != cells {
		t.Fatalf("done fired %d times, want %d", len(got), cells)
	}
	for i, c := range got {
		if c.done != i+1 || c.total != cells {
			t.Fatalf("cell %d = %s %d/%d; done counter not serialized", i, c.label, c.done, c.total)
		}
		if c.snap.Delivered == 0 || c.snap.TotalGrants() == 0 {
			t.Fatalf("cell %q recorded no traffic: %+v", c.label, *c.snap)
		}
		if len(c.snap.Alerts) != 0 {
			t.Fatalf("cell %q tripped the watchdog: %v", c.label, c.snap.Alerts)
		}
		if c.tracer == nil || c.tracer.Recorded() == 0 {
			t.Fatalf("cell %s has no tracer events", c.label)
		}
	}
}

// firstPolicyT is the trivial arbitration rule for telemetry tests.
type firstPolicyT struct{}

func (firstPolicyT) Name() string                                    { return "first" }
func (firstPolicyT) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }

// TestTelemetryNilSafe checks that a sweep without a hook, and a hook whose
// done is nil, still count their cells without blowing up, and that the hook
// is handed the cell's network before its first cycle. (The sampling period
// of a sweep's suite is the reader's: cmd/experiments' fig11 golden pins its
// metrics.json.)
func TestTelemetryNilSafe(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
	net.SetPolicy(firstPolicyT{})
	bare := &cellCount{total: 2}
	bare.attach("x", net)()
	var handed *noc.Network
	silent := &cellCount{hook: func(_ string, n *noc.Network) func(int, int) { handed = n; return nil }, total: 2}
	silent.attach("x", net)()
	silent.attach("y", net)()
	if bare.done != 1 || silent.done != 2 || handed != net {
		t.Fatalf("counted %d and %d cells, hook handed %p; want 1, 2, %p", bare.done, silent.done, handed, net)
	}

	model := synfull.Catalog()[0]
	rows := []apuRow{{label: "cell", apps: apu.Homogeneous(model), seed: 1}}
	first := []PolicyFactory{{Name: "first", New: func(int64) noc.Policy { return firstPolicyT{} }}}
	var cycle int64 = -1
	atStart := &cellCount{hook: func(_ string, n *noc.Network) func(int, int) { cycle = n.Cycle(); return nil }, total: 1}
	for _, c := range []*cellCount{{total: 1}, atStart} {
		if _, err := apuGrid(context.Background(), Scale{OpScale: 0.02}, c, rows, first); err != nil || c.done != 1 {
			t.Fatalf("grid of one cell: err %v, %d cells counted", err, c.done)
		}
	}
	if cycle != 0 {
		t.Fatalf("hook handed the network at cycle %d, want 0", cycle)
	}
}

// TestCellFailureDiagnostics checks the did-not-finish panic text reads the
// cell's network — the in-flight count and the oldest queued message — the
// same with instruments attached or not, and that a watchdog's diagnosis
// stays in its suite's snapshot instead.
func TestCellFailureDiagnostics(t *testing.T) {
	// Freeze two networks mid-flight, one under a watchdog that trips.
	frozen := func(instrumented bool) (*noc.Network, *obs.Suite) {
		net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
		net.SetPolicy(noMatch{})
		var suite *obs.Suite
		if instrumented {
			suite = obs.Attach(net, obs.SuiteConfig{
				SampleEvery: 1,
				Watchdog:    &obs.WatchdogConfig{Threshold: 20},
			})
		}
		cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
		net.Run(200)
		return net, suite
	}
	bareNet, _ := frozen(false)
	bare := cellFailure("w/p", bareNet, bareNet.Cycle())
	want := "experiments: w/p did not finish after 200 cycles (1 messages in flight, max queued local age 199)"
	if bare != want {
		t.Fatalf("bare failure text:\n got %q\nwant %q", bare, want)
	}
	net, suite := frozen(true)
	if msg := cellFailure("w/p", net, net.Cycle()); msg != bare {
		t.Fatalf("instrumented failure text %q differs from bare %q", msg, bare)
	}
	if strings.Contains(bare, "watchdog") {
		t.Fatalf("failure text mentions a watchdog: %q", bare)
	}
	alerts := suite.Snapshot().Alerts
	if len(alerts) == 0 || !strings.Contains(fmt.Sprint(alerts), "livelock") {
		t.Fatalf("snapshot missing the watchdog's livelock diagnosis: %v", alerts)
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

// TestAblationTelemetry runs the real ablation sweep with a hook attached
// and checks one snapshot lands per cell with the documented labels.
func TestAblationTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var got []cellSeen
	r, err := AblationCtx(context.Background(), tinyScale(), recordCells(&got, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[string]*obs.Snapshot{}
	for _, c := range got {
		snaps[c.label] = c.snap
	}
	want := len(r.Workloads) * len(r.Variants)
	if got := len(snaps); got != want {
		t.Fatalf("the hook kept %d snapshots, want %d", got, want)
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

// stallPolicy grants nothing: every output it matches stays idle.
type stallPolicy struct{ idle []int }

func (*stallPolicy) Name() string                                    { return "stall" }
func (*stallPolicy) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }
func (p *stallPolicy) Match(_ *noc.MatchContext, reqs []noc.Request) []int {
	for len(p.idle) < len(reqs) {
		p.idle = append(p.idle, -1)
	}
	return p.idle[:len(reqs)]
}

// TestStuckCellReportsBeforePanic: a cell that never finishes still runs its
// hook's done, where a command's watchdog reports the cell, before the sweep
// panics with a *CellPanic whose message names the cell.
func TestStuckCellReportsBeforePanic(t *testing.T) {
	var done []string
	hook := func(label string, _ *noc.Network) func(int, int) {
		return func(int, int) { done = append(done, label) }
	}
	rows := []apuRow{{label: "stuck", apps: apu.Homogeneous(synfull.Catalog()[0]), seed: 1}}
	stall := []PolicyFactory{{Name: "stall", New: func(int64) noc.Policy { return &stallPolicy{} }}}
	defer func() {
		cp, ok := recover().(*CellPanic)
		if !ok || !strings.Contains(fmt.Sprint(cp.Value), "stuck/stall did not finish") {
			t.Fatalf("recovered %v, want a *CellPanic naming stuck/stall", cp)
		}
		if len(done) != 1 || done[0] != "stuck/stall" {
			t.Fatalf("the hook's done ran for %v, want [stuck/stall]", done)
		}
	}()
	apuGrid(context.Background(), Scale{OpScale: 0.02}, &cellCount{hook: hook, total: 1}, rows, stall)
	t.Fatal("apuGrid returned on a cell that cannot finish")
}

package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mlnoc/internal/core"
	"mlnoc/internal/rl"
	"mlnoc/internal/synfull"
)

// tinyScale keeps integration tests fast while preserving the contention
// regimes the shape assertions rely on.
func tinyScale() Scale {
	return Scale{
		TrainCycles:   8_000,
		WarmupCycles:  500,
		MeasureCycles: 3_000,
		OpScale:       0.15,
		Epochs:        5,
		EpochCycles:   600,
		Seed:          1,
	}
}

func TestTable3Relationships(t *testing.T) {
	r := Table3()
	if len(r.Reports) != 3 {
		t.Fatalf("reports = %d", len(r.Reports))
	}
	nn, rr, prop := r.Reports[0], r.Reports[1], r.Reports[2]
	if !(nn.LatencyNS > prop.LatencyNS && prop.LatencyNS > rr.LatencyNS) {
		t.Fatalf("latency ordering broken: %v %v %v", nn.LatencyNS, prop.LatencyNS, rr.LatencyNS)
	}
	if !(nn.AreaMM2 > 50*prop.AreaMM2 && prop.AreaMM2 > rr.AreaMM2) {
		t.Fatalf("area ordering broken: %v %v %v", nn.AreaMM2, prop.AreaMM2, rr.AreaMM2)
	}
	if out := r.Render(); !strings.Contains(out, "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestStarvationGuard(t *testing.T) {
	res := Starvation(tinyScale())
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %v", res.Policies)
	}
	naive, inspired := res.MaxQueuedLocalAge[0], res.MaxQueuedLocalAge[2]
	// The naive newest-first arbiter starves: messages stuck for most of the
	// run. Algorithm 2's local-age clause bounds waiting.
	if naive < 2*inspired {
		t.Fatalf("starvation not demonstrated: naive max age %d vs inspired %d",
			naive, inspired)
	}
	if out := res.Render(); !strings.Contains(out, "starvation") {
		t.Fatal("render missing title")
	}
}

func TestMeshStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := MeshStudy(4, tinyScale())
	if len(r.Policies) != 4 || r.Policies[3] != "Global-age" {
		t.Fatalf("policies = %v", r.Policies)
	}
	if r.Normalized[3] != 1.0 {
		t.Fatalf("global-age not normalized to 1: %v", r.Normalized)
	}
	fifo, inspired := r.Normalized[0], r.Normalized[1]
	if fifo < 1.05 {
		t.Fatalf("FIFO normalized latency %.3f; expected clearly above Global-age", fifo)
	}
	if inspired >= fifo {
		t.Fatalf("RL-inspired (%.3f) not better than FIFO (%.3f)", inspired, fifo)
	}
	// Fig. 4: with the tiny training budget the heatmap exists and is sane;
	// feature dominance is asserted by the longer core tests.
	if r.Heatmap == nil || len(r.Heatmap.Abs) != 4 {
		t.Fatal("heatmap missing")
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 5") {
		t.Fatal("render missing title")
	}
	if out := r.RenderHeatmap(); !strings.Contains(out, "Fig. 4") {
		t.Fatal("heatmap render missing title")
	}
}

func TestExecSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := tinyScale()
	r, err := ExecSweepCtx(context.Background(), sc, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 9 {
		t.Fatalf("workloads = %v", r.Workloads)
	}
	if r.Policies[len(r.Policies)-1] != "Global-age" {
		t.Fatalf("policies = %v", r.Policies)
	}
	// Normalization: global-age column is exactly 1.
	ga := len(r.Policies) - 1
	for w := range r.Workloads {
		if r.NormAvg[w][ga] != 1 {
			t.Fatalf("row %d not normalized", w)
		}
	}
	// Headline shape: the RL-inspired arbiter beats round-robin and iSLIP on
	// mean normalized execution time, and is within a few percent of
	// global-age.
	idx := func(name string) int {
		for i, p := range r.Policies {
			if p == name {
				return i
			}
		}
		t.Fatalf("policy %s missing", name)
		return -1
	}
	rlMean := r.MeanNormAvg[idx("RL-inspired")]
	if rlMean >= r.MeanNormAvg[idx("Round-robin")] {
		t.Fatalf("RL-inspired (%.3f) not better than round-robin (%.3f)",
			rlMean, r.MeanNormAvg[idx("Round-robin")])
	}
	if rlMean >= r.MeanNormAvg[idx("iSLIP")] {
		t.Fatalf("RL-inspired (%.3f) not better than iSLIP (%.3f)",
			rlMean, r.MeanNormAvg[idx("iSLIP")])
	}
	if rlMean > 1.05 {
		t.Fatalf("RL-inspired mean %.3f not close to global-age", rlMean)
	}
	// Tail metric exists and renders.
	if out := r.RenderAvg(); !strings.Contains(out, "Fig. 9") {
		t.Fatal("avg render missing title")
	}
	if out := r.RenderTail(); !strings.Contains(out, "Fig. 10") {
		t.Fatal("tail render missing title")
	}
}

func TestMixedWorkloadsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := MixedWorkloadsCtx(context.Background(), tinyScale(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mixes) != 5 || r.Mixes[0] != "4L0H" || r.Mixes[4] != "0L4H" {
		t.Fatalf("mixes = %v", r.Mixes)
	}
	// Under-utilized 4L0H: policy choice hardly matters (paper Section 5.3).
	spread4L := rowSpread(r.NormAvg[0])
	spread0H := rowSpread(r.NormAvg[4])
	if spread4L > 0.1 {
		t.Fatalf("4L0H spread %.3f; policies should hardly matter", spread4L)
	}
	if spread0H <= spread4L {
		t.Fatalf("0L4H spread (%.3f) not larger than 4L0H (%.3f)", spread0H, spread4L)
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 11") {
		t.Fatal("render missing title")
	}
}

func rowSpread(row []float64) float64 {
	lo, hi := row[0], row[0]
	for _, v := range row {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := AblationCtx(context.Background(), tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 4 || r.Variants[0] != "full" {
		t.Fatalf("variants = %v", r.Variants)
	}
	for w := range r.Workloads {
		if r.Norm[w][0] != 1 {
			t.Fatal("full variant not the baseline")
		}
	}
	// De-featuring the port rule must cost performance on at least one
	// workload (the paper's "up to 6.5%" claim).
	if r.MaxIncrease[1] <= 0 {
		t.Fatalf("port ablation shows no cost anywhere: %+v", r.MaxIncrease)
	}
	if out := r.Render(); !strings.Contains(out, "ablation") {
		t.Fatal("render missing title")
	}
}

// TestAblationCtxCancellation checks the server-job contract on a real sweep
// runner: cancelling the context after the first finished cell makes the
// sweep return ctx.Err() promptly (without running every remaining cell)
// instead of completing the whole grid.
func TestAblationCtxCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var cells int32
	tel := &Telemetry{OnCell: func(Cell) {
		atomic.AddInt32(&cells, 1)
		cancel()
	}}
	r, err := AblationCtx(ctx, tinyScale(), tel)
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned (%v, %v), want (nil, context.Canceled)", r, err)
	}
	total := int32(len(synfull.Catalog()) * 4)
	if done := atomic.LoadInt32(&cells); done >= total {
		t.Fatalf("cancelled sweep still ran all %d/%d cells", done, total)
	}
}

func TestRewardCurvesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := tinyScale()
	sc.Epochs, sc.EpochCycles = 8, 800
	r := RewardCurves(sc)
	if len(r.Names) != 3 || r.Names[0] != "global_age" {
		t.Fatalf("names = %v", r.Names)
	}
	for i, c := range r.Curves {
		if len(c) != sc.Epochs {
			t.Fatalf("curve %d has %d points, want %d", i, len(c), sc.Epochs)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 12") {
		t.Fatal("render missing title")
	}
}

func TestFeatureCurvesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := tinyScale()
	sc.Epochs, sc.EpochCycles = 6, 800
	r := FeatureCurves(sc)
	want := []string{"payload", "localage", "distance", "hop", "allfeature"}
	for i, n := range want {
		if r.Names[i] != n {
			t.Fatalf("names = %v", r.Names)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Fig. 13") {
		t.Fatal("render missing title")
	}
}

func TestAPUFactoriesFresh(t *testing.T) {
	fs := apuFactories(nil)
	if len(fs) != 6 || fs[len(fs)-1].Name != "Global-age" {
		t.Fatalf("factories = %v", policyNames(fs))
	}
	for _, f := range fs {
		// Stateful policies must not share instances across runs. FIFO and
		// Global-age are stateless zero-size structs, for which Go may
		// legitimately return identical pointers.
		if f.Name == "FIFO" || f.Name == "Global-age" {
			continue
		}
		a, b := f.New(1), f.New(1)
		if a == b {
			t.Fatalf("%s factory returned a shared instance", f.Name)
		}
	}
}

func TestMeshRate(t *testing.T) {
	if MeshRate(4) <= 0 || MeshRate(8) <= 0 {
		t.Fatal("non-positive rates")
	}
	if MeshRate(8) >= MeshRate(4) {
		t.Fatal("larger meshes must use lower per-node rates")
	}
}

func TestTrainAPUSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := tinyScale()
	sc.TrainCycles = 1_500
	tr, err := core.Train(context.Background(), APUTrainSpec(sc))
	if err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent
	if agent.Decisions() == 0 {
		t.Fatal("APU training made no arbitration decisions")
	}
	agent.Freeze()
	h := APUHeatmapFromAgent(agent)
	if len(h.Abs) != 12 || len(h.Abs[0]) != 42 {
		t.Fatalf("APU heatmap shape %dx%d, want 12x42", len(h.Abs), len(h.Abs[0]))
	}
	if out := RenderAPUHeatmap(h); !strings.Contains(out, "Fig. 7") {
		t.Fatal("render missing title")
	}
}

func TestHillClimbReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := tinyScale()
	sc.Epochs, sc.EpochCycles = 4, 400
	out := HillClimbReport(sc)
	if !strings.Contains(out, "hill-climbing") || !strings.Contains(out, "selected") {
		t.Fatalf("hill climb report malformed:\n%s", out)
	}
}

var _ = rl.RewardGlobalAge // document the reward default used throughout

func TestFairnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Fairness(tinyScale())
	if len(r.Policies) != 9 {
		t.Fatalf("policies = %v", r.Policies)
	}
	idx := func(name string) int {
		for i, p := range r.Policies {
			if p == name {
				return i
			}
		}
		t.Fatalf("missing %s", name)
		return -1
	}
	ga, rr := idx("global-age"), idx("round-robin")
	// Global-age provides equality of service: best fairness index and the
	// lowest maximum latency among the compared policies.
	if r.Jain[ga] <= r.Jain[rr] {
		t.Fatalf("global-age Jain %.3f not better than round-robin %.3f",
			r.Jain[ga], r.Jain[rr])
	}
	if r.Max[ga] >= r.Max[rr] {
		t.Fatalf("global-age max latency %.0f not lower than round-robin %.0f",
			r.Max[ga], r.Max[rr])
	}
	for i, j := range r.Jain {
		if j <= 0 || j > 1 {
			t.Fatalf("Jain index %d = %v out of (0,1]", i, j)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Equality of service") {
		t.Fatal("render missing title")
	}
}

func TestQTableStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := tinyScale()
	r := QTableStudy(sc)
	// The table must grow monotonically through training and keep growing in
	// the final quarter (the paper's impracticality argument).
	for i := 1; i < 4; i++ {
		if r.GrowthAt[i] < r.GrowthAt[i-1] {
			t.Fatalf("table shrank: %v", r.GrowthAt)
		}
	}
	if r.GrowthAt[3] <= r.GrowthAt[2] {
		t.Fatalf("table stopped growing: %v", r.GrowthAt)
	}
	if r.States < 100 {
		t.Fatalf("only %d states; discretization too coarse to demonstrate growth", r.States)
	}
	if r.DQLParams != 1155 { // 60*15+15 + 15*15+15
		t.Fatalf("DQL params = %d, want 1155", r.DQLParams)
	}
	if r.TabularLatency <= 0 || r.DQLLatency <= 0 {
		t.Fatal("missing latencies")
	}
	if out := r.Render(); !strings.Contains(out, "tabular") {
		t.Fatal("render missing title")
	}
}

func TestFlitCheckShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := FlitCheck(tinyScale())
	if len(r.Policies) != 4 || r.Policies[3] != "Global-age" {
		t.Fatalf("policies = %v", r.Policies)
	}
	rr, fifo, rl, ga := r.Normalized[0], r.Normalized[1], r.Normalized[2], r.Normalized[3]
	if ga != 1 {
		t.Fatalf("normalization broken: %v", r.Normalized)
	}
	if rr <= ga {
		t.Fatalf("flit-level round-robin (%.3f) not worse than global-age", rr)
	}
	if fifo < 1.2 {
		t.Fatalf("flit-level FIFO %.3f not clearly worse than global-age", fifo)
	}
	if rl >= fifo {
		t.Fatalf("flit-level RL-inspired (%.3f) not better than FIFO (%.3f)", rl, fifo)
	}
	if out := r.Render(); !strings.Contains(out, "Flit-level") {
		t.Fatal("render missing title")
	}
}

func TestBufferAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := BufferAblation(tinyScale())
	if len(r.Caps) != 4 || r.Caps[0] != 1 {
		t.Fatalf("caps = %v", r.Caps)
	}
	// The FIFO/GA gap must be largest with the shallowest buffers and shrink
	// toward parity as buffers deepen.
	if r.FIFOOverGA[0] < 1.1 {
		t.Fatalf("cap-1 gap %.3f too small", r.FIFOOverGA[0])
	}
	last := r.FIFOOverGA[len(r.FIFOOverGA)-1]
	if last > r.FIFOOverGA[0] {
		t.Fatalf("gap grew with buffer depth: %v", r.FIFOOverGA)
	}
	if last < 0.9 || last > 1.15 {
		t.Fatalf("deep-buffer gap %.3f not near parity", last)
	}
	if out := r.Render(); !strings.Contains(out, "buffer capacity") {
		t.Fatal("render missing title")
	}
}

func TestTieBreakAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := TieBreakAblation(tinyScale())
	if r.MaxAgeFixed < 3*r.MaxAgeRotating {
		t.Fatalf("fixed tie-break max age %d not clearly worse than rotating %d",
			r.MaxAgeFixed, r.MaxAgeRotating)
	}
	if out := r.Render(); !strings.Contains(out, "tie-break") {
		t.Fatal("render missing title")
	}
}

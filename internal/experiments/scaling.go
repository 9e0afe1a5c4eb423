package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
)

// DefaultScalingSizes are the mesh edge sizes swept by the scaling study: the
// paper's 8x8 plus the large-topology axis.
var DefaultScalingSizes = []int{8, 16, 32}

// ScalingStudyResult is the per-size outcome of the scaling study; every
// slice follows Sizes.
type ScalingStudyResult struct {
	Sizes []int
	Torus bool
	Rates []float64

	// Deterministic simulation outcome per size.
	Delivered  []int64
	AvgLatency []float64

	// Wall-clock throughput per size (machine-dependent); MsgsPerSecPerCore
	// is the headline scaling number.
	MsgsPerSecPerCore []float64
	StepsPerSec       []float64
}

// ScalingStudyCtx measures single-network step throughput for every size:
// one seeded uniform-random run per Size x Size mesh or torus under the
// global-age policy, timing the measured window. Runs are strictly
// sequential — each one wants the whole machine, and interleaving them would
// corrupt the wall-clock numbers. Cancellation is polled every
// checkEvery cycles. The unnamed slice is ignored: it stays only because
// benchmark/simd.go still passes one, and goes when the benchmark harness is
// unified. In-repo callers pass nil.
func ScalingStudyCtx(ctx context.Context, sizes, _ []int, torus bool, sc Scale) (*ScalingStudyResult, error) {
	res := &ScalingStudyResult{Sizes: append([]int(nil), sizes...), Torus: torus}
	for _, size := range sizes {
		if size < 2 {
			return nil, fmt.Errorf("experiments: scaling size %d too small", size)
		}
		// Meshes run at the Section 3.2 near-saturation rate; a torus runs
		// well below it, because ring-shortest DOR on wrapped rings has a
		// cyclic channel dependency and saturating a healthy torus can wedge
		// it (see DESIGN.md §4) — the scaling story needs sustained
		// throughput, not a study of that deadlock.
		rate := MeshRate(size)
		if torus {
			rate = 0.05
		}
		net, in := traffic.Mesh{
			Config: noc.Config{Width: size, Height: size, VCs: 3, BufferCap: 8, Torus: torus},
			Rate:   rate,
			Seed:   sc.Seed,
		}.Build(arb.NewGlobalAge())
		if err := steps(ctx, net, in, sc.WarmupCycles); err != nil {
			return nil, err
		}
		net.ResetStats()
		start := time.Now()
		if err := steps(ctx, net, in, sc.MeasureCycles); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		net.Drain(4 * sc.MeasureCycles)

		st := net.Stats()
		var stepsPerSec, msgsPerSecPerCore float64
		if wall > 0 {
			stepsPerSec = float64(sc.MeasureCycles) / wall
			msgsPerSecPerCore = float64(st.Delivered) / wall / float64(size*size)
		}
		res.Rates = append(res.Rates, rate)
		res.Delivered = append(res.Delivered, st.Delivered)
		res.AvgLatency = append(res.AvgLatency, st.Latency.Mean())
		res.MsgsPerSecPerCore = append(res.MsgsPerSecPerCore, msgsPerSecPerCore)
		res.StepsPerSec = append(res.StepsPerSec, stepsPerSec)
	}
	return res, nil
}

// checkEvery is the cancellation poll period of steps in cycles: coarse
// enough that the atomic ctx.Err() check is invisible next to a simulated
// cycle, fine enough that cancellation lands within milliseconds.
const checkEvery = 1024

// steps injects and steps n cycles, polling ctx every checkEvery cycles.
func steps(ctx context.Context, net *noc.Network, in *traffic.Injector, n int64) error {
	for i := int64(0); i < n; i++ {
		if i%checkEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		in.Tick()
		net.Step()
	}
	return nil
}

func (r *ScalingStudyResult) sizeLabels() []string {
	kind := "mesh"
	if r.Torus {
		kind = "torus"
	}
	out := make([]string, len(r.Sizes))
	for i, s := range r.Sizes {
		out[i] = fmt.Sprintf("%s%dx%d", kind, s, s)
	}
	return out
}

// throughputColumns labels the wall-clock table's columns.
var throughputColumns = []string{"messages/sec/core", "steps/sec"}

func (r *ScalingStudyResult) throughput() [][]float64 {
	m := make([][]float64, len(r.Sizes))
	for si := range m {
		m[si] = []float64{r.MsgsPerSecPerCore[si], r.StepsPerSec[si]}
	}
	return m
}

// Render formats the throughput table followed by the per-size simulation
// outcome.
func (r *ScalingStudyResult) Render() string {
	return renderMatrix("Scaling study: stepping throughput by topology size",
		"topology", r.sizeLabels(), throughputColumns, r.throughput(), nil) + r.RenderInvariant()
}

// CSV exports the throughput table.
func (r *ScalingStudyResult) CSV() string {
	return viz.MatrixCSV("topology", r.sizeLabels(), throughputColumns, r.throughput())
}

// RenderInvariant formats only the deterministic simulation outcome — no
// wall-clock numbers — so the output is byte-identical on any machine. The
// serve daemon caches this rendering.
func (r *ScalingStudyResult) RenderInvariant() string {
	var b strings.Builder
	b.WriteString("Large-topology outcome (deterministic per seed):\n")
	for si, label := range r.sizeLabels() {
		fmt.Fprintf(&b, "  %-10s rate %.2f: delivered %d, avg latency %.2f cycles\n",
			label, r.Rates[si], r.Delivered[si], r.AvgLatency[si])
	}
	return b.String()
}

// InvariantCSV exports the deterministic outcome per topology size.
func (r *ScalingStudyResult) InvariantCSV() string {
	var b strings.Builder
	b.WriteString("topology,rate,delivered,avg_latency\n")
	for si, label := range r.sizeLabels() {
		fmt.Fprintf(&b, "%s,%.4f,%d,%.6f\n", label, r.Rates[si], r.Delivered[si], r.AvgLatency[si])
	}
	return b.String()
}

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
	"mlnoc/internal/xrand"
)

// DefaultScalingSizes are the mesh edge sizes swept by the scaling study: the
// paper's 8x8 plus the large-topology axis.
var DefaultScalingSizes = []int{8, 16, 32}

// ScalingRate returns the uniform-random injection rate for a large-topology
// throughput run. Meshes run at the Section 3.2 near-saturation rate; a torus
// runs well below it, because ring-shortest DOR on wrapped rings has a cyclic
// channel dependency and saturating a healthy torus can wedge it (see
// DESIGN.md §13) — the scaling story needs sustained throughput, not a study
// of that deadlock.
func ScalingRate(size int, torus bool) float64 {
	if torus {
		return 0.05
	}
	return MeshRate(size)
}

// LargeMeshConfig parameterizes one large-topology throughput run.
type LargeMeshConfig struct {
	Size  int  // mesh edge length (Size x Size routers, one core each)
	Torus bool // wrap both dimensions into rings
	// Rate overrides the injection rate; 0 uses ScalingRate.
	Rate float64
}

// LargeMeshResult is the outcome of one large-topology run.
type LargeMeshResult struct {
	Size  int     `json:"size"`
	Torus bool    `json:"torus"`
	Rate  float64 `json:"rate"`

	// Deterministic simulation outcome of the measured window.
	Cycles     int64   `json:"cycles"`
	Injected   int64   `json:"injected"`
	Delivered  int64   `json:"delivered"`
	AvgLatency float64 `json:"avg_latency"`

	// Wall-clock throughput of the measured window (machine-dependent).
	WallSeconds       float64 `json:"wall_seconds"`
	StepsPerSec       float64 `json:"steps_per_sec"`
	MsgsPerSec        float64 `json:"msgs_per_sec"`
	MsgsPerSecPerCore float64 `json:"msgs_per_sec_per_core"`
}

// LargeMeshCtx drives one seeded uniform-random run on a Size x Size mesh or
// torus under the global-age policy, timing the measured window. Cancellation
// is polled every trainCheckEvery cycles.
func LargeMeshCtx(ctx context.Context, cfg LargeMeshConfig, sc Scale) (*LargeMeshResult, error) {
	if cfg.Size < 2 {
		return nil, fmt.Errorf("experiments: scaling size %d too small", cfg.Size)
	}
	rate := cfg.Rate
	if rate == 0 {
		rate = ScalingRate(cfg.Size, cfg.Torus)
	}
	ncfg := noc.Config{Width: cfg.Size, Height: cfg.Size, VCs: 3, BufferCap: 8, Torus: cfg.Torus}
	net, cores := noc.BuildMeshCores(ncfg)
	net.SetPolicy(arb.NewGlobalAge())

	in := traffic.NewInjector(cores, traffic.UniformRandom{}, rate, xrand.New(sc.Seed))
	in.Classes = ncfg.VCs
	for i := int64(0); i < sc.WarmupCycles; i++ {
		if i%trainCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		in.Tick()
		net.Step()
	}
	net.ResetStats()
	start := time.Now()
	for i := int64(0); i < sc.MeasureCycles; i++ {
		if i%trainCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		in.Tick()
		net.Step()
	}
	wall := time.Since(start).Seconds()
	net.Drain(4 * sc.MeasureCycles)

	st := net.Stats()
	res := &LargeMeshResult{
		Size:        cfg.Size,
		Torus:       cfg.Torus,
		Rate:        rate,
		Cycles:      net.Cycle(),
		Injected:    st.Injected,
		Delivered:   st.Delivered,
		AvgLatency:  st.Latency.Mean(),
		WallSeconds: wall,
	}
	if wall > 0 {
		res.StepsPerSec = float64(sc.MeasureCycles) / wall
		res.MsgsPerSec = float64(st.Delivered) / wall
		res.MsgsPerSecPerCore = res.MsgsPerSec / float64(len(cores))
	}
	return res, nil
}

// ScalingStudyResult is the per-size outcome of the scaling study; every
// slice follows Sizes.
type ScalingStudyResult struct {
	Sizes []int     `json:"sizes"`
	Torus bool      `json:"torus"`
	Rates []float64 `json:"rates"`

	// Deterministic simulation outcome per size.
	Delivered  []int64   `json:"delivered"`
	AvgLatency []float64 `json:"avg_latency"`

	// Wall-clock throughput per size (machine-dependent); MsgsPerSecPerCore
	// is the headline scaling number.
	MsgsPerSecPerCore []float64 `json:"msgs_per_sec_per_core"`
	StepsPerSec       []float64 `json:"steps_per_sec"`
}

// ScalingStudyCtx measures single-network step throughput for every size.
// Runs are strictly sequential — each one wants the whole machine, and
// interleaving them would corrupt the wall-clock numbers. The unnamed slice
// is ignored: it stays only because benchmark/simd.go still passes one, and
// ROADMAP item 2's [benchmark] PR removes it. In-repo callers pass nil.
func ScalingStudyCtx(ctx context.Context, sizes, _ []int, torus bool, sc Scale) (*ScalingStudyResult, error) {
	if len(sizes) == 0 {
		sizes = DefaultScalingSizes
	}
	res := &ScalingStudyResult{Sizes: append([]int(nil), sizes...), Torus: torus}
	for _, size := range sizes {
		r, err := LargeMeshCtx(ctx, LargeMeshConfig{Size: size, Torus: torus}, sc)
		if err != nil {
			return nil, err
		}
		res.Rates = append(res.Rates, r.Rate)
		res.Delivered = append(res.Delivered, r.Delivered)
		res.AvgLatency = append(res.AvgLatency, r.AvgLatency)
		res.MsgsPerSecPerCore = append(res.MsgsPerSecPerCore, r.MsgsPerSecPerCore)
		res.StepsPerSec = append(res.StepsPerSec, r.StepsPerSec)
	}
	return res, nil
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

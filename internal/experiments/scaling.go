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
// paper's 8x8 plus the large-topology axis the sharded engine unlocks.
var DefaultScalingSizes = []int{8, 16, 32}

// DefaultScalingShards are the shard counts compared per size.
var DefaultScalingShards = []int{1, 2, 4}

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
	Size   int  // mesh edge length (Size x Size routers, one core each)
	Torus  bool // wrap both dimensions into rings
	Shards int  // router shards stepped in parallel; <= 1 is sequential
	// Rate overrides the injection rate; 0 uses ScalingRate.
	Rate float64
}

// LargeMeshResult is the outcome of one large-topology run. The simulation
// fields are bit-identical across shard counts (that invariance is what
// ScalingStudyCtx asserts); only the wall-clock fields vary with K.
type LargeMeshResult struct {
	Size   int     `json:"size"`
	Torus  bool    `json:"torus"`
	Shards int     `json:"shards"`
	Rate   float64 `json:"rate"`

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

// LargeMesh runs LargeMeshCtx without cancellation.
func LargeMesh(cfg LargeMeshConfig, sc Scale) *LargeMeshResult {
	r, _ := LargeMeshCtx(context.Background(), cfg, sc)
	return r
}

// LargeMeshCtx drives one seeded uniform-random run on a Size x Size mesh or
// torus under the global-age policy with the requested shard count, timing
// the measured window. Cancellation is polled every trainCheckEvery cycles.
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
	net.SetShards(cfg.Shards)
	defer net.SetShards(1)

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
		Shards:      net.Shards(),
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

// ScalingStudyResult is the sizes x shards throughput matrix. Rows follow
// Sizes, columns follow Shards.
type ScalingStudyResult struct {
	Sizes  []int     `json:"sizes"`
	Shards []int     `json:"shards"`
	Torus  bool      `json:"torus"`
	Rates  []float64 `json:"rates"`

	// Shard-invariant simulation outcome per size, asserted identical across
	// every shard column before the result is returned.
	Delivered  []int64   `json:"delivered"`
	AvgLatency []float64 `json:"avg_latency"`

	// MsgsPerSecPerCore[s][k] is the headline scaling number; Speedup is the
	// same row normalized to its first (fewest-shards) column.
	MsgsPerSecPerCore [][]float64 `json:"msgs_per_sec_per_core"`
	StepsPerSec       [][]float64 `json:"steps_per_sec"`
	Speedup           [][]float64 `json:"speedup"`
}

// ScalingStudy runs ScalingStudyCtx without cancellation.
func ScalingStudy(sizes, shards []int, torus bool, sc Scale) (*ScalingStudyResult, error) {
	return ScalingStudyCtx(context.Background(), sizes, shards, torus, sc)
}

// ScalingStudyCtx measures single-network step throughput for every
// (size, shard count) pair. Cells run strictly sequentially — each one wants
// the whole machine, and interleaving them would corrupt the wall-clock
// numbers — and the study doubles as a production bit-identity check: if any
// shard count delivers a different message count or latency than the first
// column for the same size, the engine's determinism contract is broken and
// an error is returned instead of a result.
func ScalingStudyCtx(ctx context.Context, sizes, shards []int, torus bool, sc Scale) (*ScalingStudyResult, error) {
	if len(sizes) == 0 {
		sizes = DefaultScalingSizes
	}
	if len(shards) == 0 {
		shards = DefaultScalingShards
	}
	res := &ScalingStudyResult{
		Sizes:             append([]int(nil), sizes...),
		Shards:            append([]int(nil), shards...),
		Torus:             torus,
		Delivered:         make([]int64, len(sizes)),
		AvgLatency:        make([]float64, len(sizes)),
		MsgsPerSecPerCore: makeMatrix(len(sizes), len(shards)),
		StepsPerSec:       makeMatrix(len(sizes), len(shards)),
		Speedup:           makeMatrix(len(sizes), len(shards)),
	}
	for si, size := range sizes {
		res.Rates = append(res.Rates, ScalingRate(size, torus))
		for ki, k := range shards {
			r, err := LargeMeshCtx(ctx, LargeMeshConfig{Size: size, Torus: torus, Shards: k}, sc)
			if err != nil {
				return nil, err
			}
			if ki == 0 {
				res.Delivered[si] = r.Delivered
				res.AvgLatency[si] = r.AvgLatency
			} else if r.Delivered != res.Delivered[si] || r.AvgLatency != res.AvgLatency[si] {
				return nil, fmt.Errorf(
					"experiments: shard determinism broken on %dx%d: K=%d delivered %d (avg %.6f), K=%d delivered %d (avg %.6f)",
					size, size, shards[0], res.Delivered[si], res.AvgLatency[si],
					r.Shards, r.Delivered, r.AvgLatency)
			}
			res.MsgsPerSecPerCore[si][ki] = r.MsgsPerSecPerCore
			res.StepsPerSec[si][ki] = r.StepsPerSec
			if base := res.MsgsPerSecPerCore[si][0]; base > 0 {
				res.Speedup[si][ki] = res.MsgsPerSecPerCore[si][ki] / base
			}
		}
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

func (r *ScalingStudyResult) shardLabels() []string {
	out := make([]string, len(r.Shards))
	for i, k := range r.Shards {
		out[i] = fmt.Sprintf("K=%d", k)
	}
	return out
}

// Render formats the throughput and speedup matrices with the per-size
// shard-invariant outcome line.
func (r *ScalingStudyResult) Render() string {
	var b strings.Builder
	b.WriteString(renderMatrix(
		"Scaling study: delivered messages/sec/core by topology size and shard count",
		"topology", r.sizeLabels(), r.shardLabels(), r.MsgsPerSecPerCore, nil))
	b.WriteString(renderMatrix(
		"Speedup over the first shard column (same seeded run, bit-identical outcome)",
		"topology", r.sizeLabels(), r.shardLabels(), r.Speedup, nil))
	b.WriteString("shard-invariant outcome per size (asserted identical across K):\n")
	for si := range r.Sizes {
		fmt.Fprintf(&b, "  %-10s rate %.2f: delivered %d, avg latency %.2f cycles\n",
			r.sizeLabels()[si], r.Rates[si], r.Delivered[si], r.AvgLatency[si])
	}
	return b.String()
}

// CSV exports the messages/sec/core matrix.
func (r *ScalingStudyResult) CSV() string {
	return viz.MatrixCSV("topology", r.sizeLabels(), r.shardLabels(), r.MsgsPerSecPerCore)
}

// RenderInvariant formats only the shard-invariant simulation outcome — no
// wall-clock numbers — so the output is byte-identical for any shard count on
// any machine. The serve daemon caches this rendering.
func (r *ScalingStudyResult) RenderInvariant() string {
	var b strings.Builder
	b.WriteString("Large-topology outcome (shard-invariant, asserted identical across K):\n")
	for si := range r.Sizes {
		fmt.Fprintf(&b, "  %-10s rate %.2f: delivered %d, avg latency %.2f cycles\n",
			r.sizeLabels()[si], r.Rates[si], r.Delivered[si], r.AvgLatency[si])
	}
	return b.String()
}

// InvariantCSV exports the shard-invariant outcome per topology size.
func (r *ScalingStudyResult) InvariantCSV() string {
	var b strings.Builder
	b.WriteString("topology,rate,delivered,avg_latency\n")
	for si := range r.Sizes {
		fmt.Fprintf(&b, "%s,%.4f,%d,%.6f\n",
			r.sizeLabels()[si], r.Rates[si], r.Delivered[si], r.AvgLatency[si])
	}
	return b.String()
}

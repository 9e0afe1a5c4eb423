// Package serve turns the deterministic simulation engine into a long-running
// simulation-as-a-service daemon: JSON job specs that map 1:1 onto the
// internal/experiments entry points, a bounded priority worker pool with
// per-job cancellation and graceful drain, a content-hash result cache that
// answers repeated deterministic jobs without re-simulating, and an HTTP+JSON
// API with SSE streaming of per-cell obs snapshots.
//
// The whole design leans on one property pinned by the engine's tests: a job
// spec plus a seed fully determines the simulation output, bit for bit. That
// makes (spec, seed, engine version) a safe cache key — the canonical job
// hash — and makes a cache hit indistinguishable from a re-run except for
// latency.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/experiments"
)

// Versions folded into every job hash. EngineVersion must be bumped whenever
// a change makes the simulator produce different output for the same spec
// (otherwise a stale cache would keep serving the old results); SchemaVersion
// guards the canonicalization itself, so a change to how specs are resolved
// into hashes can never collide with hashes minted before it.
const (
	EngineVersion = "mlnoc-engine/8"
	SchemaVersion = 1
)

// Job spec vocabulary.
const (
	TypeSweep = "sweep"
	TypeTrain = "train"
	TypeFault = "fault"
	TypeQuant = "quant"
	TypeMesh  = "mesh"
)

// The job types and sweep experiments a spec may name.
var (
	jobTypes         = []string{TypeSweep, TypeTrain, TypeFault, TypeQuant, TypeMesh}
	sweepExperiments = []string{"exec", "mix", "ablation"}
)

// Spec is the JSON job specification submitted to POST /jobs. Each job runs
// one experiments.Table entry, so `experiments <entry>` at the same scale,
// seed and parameters prints the payload's tables and writes its CSVs:
//
//	sweep/exec     -> exec      (Figs. 9+10)
//	sweep/mix      -> fig11     (mixed workloads)
//	sweep/ablation -> ablation  (Section 5.1)
//	train          -> fig7      (APU agent heatmap)
//	fault          -> faults    (robustness sweep)
//	quant          -> quant     (INT8 fidelity)
//	mesh           -> mesh      (deterministic half of the scaling study)
//
// Priority orders the queue (higher first, FIFO within a priority) and is
// deliberately excluded from the job hash: it affects when a job runs, never
// what it computes.
type Spec struct {
	Type     string     `json:"type"`
	Seed     int64      `json:"seed,omitempty"` // 0 means the default seed 1
	Priority int        `json:"priority,omitempty"`
	Scale    *ScaleSpec `json:"scale,omitempty"`
	Sweep    *SweepSpec `json:"sweep,omitempty"`
	Fault    *FaultSpec `json:"fault,omitempty"`
	Quant    *QuantSpec `json:"quant,omitempty"`
	Mesh     *MeshSpec  `json:"mesh,omitempty"`
}

// ScaleSpec selects a Scale preset and optionally overrides individual
// knobs; a zero field means "use the preset's value", which is exactly how
// the canonicalizer treats it (an explicit value equal to the preset's
// hashes identically to leaving the field out).
type ScaleSpec struct {
	Preset        string  `json:"preset,omitempty"` // "quick" (default) or "full"
	TrainCycles   int64   `json:"train_cycles,omitempty"`
	WarmupCycles  int64   `json:"warmup_cycles,omitempty"`
	MeasureCycles int64   `json:"measure_cycles,omitempty"`
	OpScale       float64 `json:"op_scale,omitempty"`
	Epochs        int     `json:"epochs,omitempty"`
	EpochCycles   int64   `json:"epoch_cycles,omitempty"`
}

// SweepSpec parameterizes a sweep job.
type SweepSpec struct {
	// Experiment is "exec", "mix" or "ablation".
	Experiment string `json:"experiment"`
	// TrainNN trains the APU agent first and includes it as the NN policy
	// (exec and mix only; ablation compares hand-derived variants).
	TrainNN bool `json:"train_nn,omitempty"`
}

// FaultSpec parameterizes a fault-robustness sweep; an empty rate list means
// experiments.DefaultFaultRates.
type FaultSpec struct {
	Rates []float64 `json:"rates,omitempty"`
}

// QuantSpec parameterizes an INT8 quantization-fidelity study.
type QuantSpec struct {
	// Size is the mesh edge size (default experiments.DefaultQuantSize).
	Size int `json:"size,omitempty"`
}

// MeshSpec parameterizes a large-topology scaling job. Sizes are mesh/torus
// edge lengths (default experiments.DefaultScalingSizes), within the bounds
// experiments.CheckTopology enforces.
type MeshSpec struct {
	Sizes []int `json:"sizes,omitempty"`
	Torus bool  `json:"torus,omitempty"`
}

// ParseSpec decodes and validates a JSON job spec. Unknown fields are
// rejected: a typo that silently dropped a knob would hash — and cache — as
// a different job than the user meant.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks every field against the same constraint vocabulary the
// CLIs use (internal/cliutil), so rejection messages read identically on
// both surfaces.
func (s *Spec) Validate() error {
	var c cliutil.Check
	c.OneOf("type", s.Type, jobTypes...)
	c.NonNegative("seed", s.Seed)
	if sc := s.Scale; sc != nil {
		if sc.Preset != "" {
			c.OneOf("scale.preset", sc.Preset, "quick", "full")
		}
		c.NonNegative("scale.train_cycles", sc.TrainCycles)
		c.NonNegative("scale.warmup_cycles", sc.WarmupCycles)
		c.NonNegative("scale.measure_cycles", sc.MeasureCycles)
		if sc.OpScale != 0 {
			c.PositiveF("scale.op_scale", sc.OpScale)
		}
		c.NonNegative("scale.epochs", int64(sc.Epochs))
		c.NonNegative("scale.epoch_cycles", sc.EpochCycles)
	}
	switch s.Type {
	case TypeSweep:
		if s.Sweep == nil {
			return fmt.Errorf(`sweep jobs need a "sweep" section`)
		}
		c.OneOf("sweep.experiment", s.Sweep.Experiment, sweepExperiments...)
	case TypeFault:
		if s.Fault != nil {
			for i, r := range s.Fault.Rates {
				c.Unit(fmt.Sprintf("fault.rates[%d]", i), r)
			}
		}
	case TypeQuant:
		if s.Quant != nil && s.Quant.Size != 0 {
			c.AtLeast("quant.size", int64(s.Quant.Size), 2)
			c.AtMost("quant.size", int64(s.Quant.Size), experiments.MaxMeshEdge)
		}
	case TypeMesh:
		if s.Mesh != nil {
			experiments.CheckTopology(&c, "mesh.sizes", s.Mesh.Sizes, s.Mesh.Torus)
		}
	}
	return c.Err()
}

// EffectiveSeed resolves the spec's seed (0 means the CLI-wide default, 1).
func (s *Spec) EffectiveSeed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// ResolveScale materializes the spec's Scale: preset first (quick unless
// "full"), then any non-zero overrides, then the effective seed. The result
// is the fully explicit value that both execution and hashing use, so the
// hash can never disagree with what actually runs.
func (s *Spec) ResolveScale() experiments.Scale {
	sc := experiments.Quick()
	if s.Scale != nil && s.Scale.Preset == "full" {
		sc = experiments.Full()
	}
	if o := s.Scale; o != nil {
		if o.TrainCycles > 0 {
			sc.TrainCycles = o.TrainCycles
		}
		if o.WarmupCycles > 0 {
			sc.WarmupCycles = o.WarmupCycles
		}
		if o.MeasureCycles > 0 {
			sc.MeasureCycles = o.MeasureCycles
		}
		if o.OpScale > 0 {
			sc.OpScale = o.OpScale
		}
		if o.Epochs > 0 {
			sc.Epochs = o.Epochs
		}
		if o.EpochCycles > 0 {
			sc.EpochCycles = o.EpochCycles
		}
	}
	sc.Seed = s.EffectiveSeed()
	return sc
}

// input resolves the spec into the experiments.Input its entry runs on, with
// every default applied. Execute runs exactly these values and Hash covers
// them, so the hash cannot disagree with what runs.
func (s *Spec) input(cell experiments.CellHook) experiments.Input {
	in := experiments.Input{
		Scale:        s.ResolveScale(),
		Cell:         cell,
		FaultRates:   experiments.DefaultFaultRates,
		QuantSize:    experiments.DefaultQuantSize,
		ScalingSizes: experiments.DefaultScalingSizes,
	}
	if s.Sweep != nil {
		in.TrainNN = s.Sweep.TrainNN
	}
	if s.Fault != nil && len(s.Fault.Rates) > 0 {
		in.FaultRates = s.Fault.Rates
	}
	if s.Quant != nil && s.Quant.Size > 0 {
		in.QuantSize = s.Quant.Size
	}
	if s.Mesh != nil {
		in.Torus = s.Mesh.Torus
		if len(s.Mesh.Sizes) > 0 {
			in.ScalingSizes = s.Mesh.Sizes
		}
	}
	return in
}

// canonicalJob is the exact byte layout hashed into the job's cache key:
// engine and schema versions, the job type, and every resolved
// result-affecting parameter with defaults applied. JSON key order follows
// struct field order, so marshalling is deterministic; request-level JSON
// key order and default-vs-explicit spelling cannot reach this struct.
type canonicalJob struct {
	Engine string            `json:"engine"`
	Schema int               `json:"schema"`
	Type   string            `json:"type"`
	Seed   int64             `json:"seed"`
	Scale  experiments.Scale `json:"scale"`
	Sweep  *SweepSpec        `json:"sweep,omitempty"`
	Rates  []float64         `json:"rates,omitempty"`
	Size   int               `json:"size,omitempty"`
	Mesh   *canonicalMesh    `json:"mesh,omitempty"`
}

// canonicalMesh is the hashed form of a mesh job.
type canonicalMesh struct {
	Sizes []int `json:"sizes"`
	Torus bool  `json:"torus"`
}

// Hash returns the canonical content hash of the job: a hex SHA-256 over the
// canonical form. Two specs hash identically iff they resolve to the same
// simulation under the same engine — reordered JSON keys, omitted defaults
// and scheduling metadata (priority) do not change the hash; seed, any scale
// knob, job parameters, or an engine/schema version bump do.
func (s *Spec) Hash() string {
	return s.hashWith(EngineVersion, SchemaVersion)
}

// hashWith is Hash with explicit versions, split out so tests can prove a
// version bump invalidates the cache key.
func (s *Spec) hashWith(engine string, schema int) string {
	in := s.input(nil)
	c := canonicalJob{
		Engine: engine,
		Schema: schema,
		Type:   s.Type,
		Seed:   in.Scale.Seed,
		Scale:  in.Scale,
	}
	switch s.Type {
	case TypeSweep:
		sw := *s.Sweep
		c.Sweep = &sw
	case TypeFault:
		c.Rates = in.FaultRates
	case TypeQuant:
		c.Size = in.QuantSize
	case TypeMesh:
		c.Mesh = &canonicalMesh{Sizes: in.ScalingSizes, Torus: in.Torus}
	}
	buf, err := json.Marshal(c)
	if err != nil {
		// canonicalJob contains only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("serve: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

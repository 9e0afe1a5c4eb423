// Package synfull provides Markov-model application traffic generators in
// the style of APU-SynFull (Yin et al., HPCA 2016), the methodology the paper
// uses to drive its APU experiments (Section 4.2).
//
// The original APU-SynFull fits stochastic Markov models to gem5 traces of
// real applications. Those traces are not available, so this package ships
// hand-parameterized models that regenerate the same *classes* of behaviour
// the paper relies on: program phases with different traffic intensity,
// distinct CPU and GPU activity, per-node injection-rate classes
// (high-/low-injection for Fig. 11), and — crucially — memory-instruction
// dependencies via a bounded outstanding-request window, which is what lets
// arbitration decisions change total program execution time (Figs. 9-11).
//
// The nine models carry the paper's Table 1 workload names; their parameters
// are synthetic characterizations of those applications, not fits to traces
// (see DESIGN.md, "Substitutions").
package synfull

import (
	"fmt"
	"math/rand"

	"mlnoc/internal/xrand"
)

// Phase is one Markov program phase: the per-cycle behavioural parameters of
// the compute units and CPU while the phase is active.
type Phase struct {
	// Name describes the phase ("compute", "memory", ...).
	Name string
	// MemRatio is the fraction of CU operations that access memory.
	MemRatio float64
	// WriteRatio is the fraction of memory operations that are writes
	// (GPU caches are write-through/write-no-allocate, Section 4.1).
	WriteRatio float64
	// L1Hit is the GPU L1D hit rate; hits generate no NoC traffic.
	L1Hit float64
	// L2Hit is the GPU L2 hit rate; misses go to a directory.
	L2Hit float64
	// CoherenceRate is the per-CU per-cycle probability that the directory
	// layer generates a coherence message involving this CU.
	CoherenceRate float64
	// CPUMemRate is the per-cycle probability the CPU issues a memory
	// operation (to its LLC).
	CPUMemRate float64
	// LLCHit is the CPU last-level-cache hit rate.
	LLCHit float64
	// Next holds the Markov transition probabilities to each phase; it must
	// sum to 1 and have one entry per phase of the model.
	Next []float64
}

// Model is one application traffic model.
type Model struct {
	// Name is the paper's Table 1 application name.
	Name string
	// Suite is the benchmark suite of origin (Table 1).
	Suite string
	// Phases are the Markov phases; execution starts in phase 0.
	Phases []Phase
	// PhaseLen is the number of cycles between phase-transition draws.
	PhaseLen int64
	// OpsPerCU is the number of operations each compute unit must retire for
	// the instance to complete (scaled by the runner's OpScale).
	OpsPerCU int64
	// OpsPerCPU is the CPU-side operation count per instance.
	OpsPerCPU int64
	// IssueWidth is the number of operations a CU may issue per cycle.
	IssueWidth int
	// Window is the per-CU bound on outstanding memory requests (MSHRs);
	// a full window stalls the CU, coupling NoC latency to execution time.
	Window int
	// HighInjection classifies the model into Fig. 11's high-injection
	// (> 0.05 flits/cycle/node) or low-injection group.
	HighInjection bool
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	cls := "L"
	if m.HighInjection {
		cls = "H"
	}
	return fmt.Sprintf("%s(%s,%s)", m.Name, m.Suite, cls)
}

// validate panics if the model's Markov structure is malformed; it runs once
// at catalog construction.
func (m *Model) validate() {
	if len(m.Phases) == 0 || m.PhaseLen <= 0 || m.OpsPerCU <= 0 ||
		m.IssueWidth <= 0 || m.Window <= 0 {
		panic("synfull: malformed model " + m.Name)
	}
	for i, p := range m.Phases {
		if len(p.Next) != len(m.Phases) {
			panic(fmt.Sprintf("synfull: %s phase %d has %d transitions, want %d",
				m.Name, i, len(p.Next), len(m.Phases)))
		}
		sum := 0.0
		for _, pr := range p.Next {
			if pr < 0 {
				panic(fmt.Sprintf("synfull: %s phase %d negative transition", m.Name, i))
			}
			sum += pr
		}
		if sum < 0.999 || sum > 1.001 {
			panic(fmt.Sprintf("synfull: %s phase %d transitions sum to %f", m.Name, i, sum))
		}
	}
}

// Instance is the runtime phase state of one model execution (one quadrant's
// application copy).
type Instance struct {
	Model *Model

	phase    int
	nextDraw int64
	rng      *rand.Rand // over src
	src      xrand.Source
}

// Reset starts the instance in phase 0 of m, its stream seeded with seed,
// reusing its storage. A zero Instance is ready for Reset.
func (in *Instance) Reset(m *Model, seed int64) {
	if in.rng == nil {
		in.rng = rand.New(&in.src)
	}
	in.rng.Seed(seed)
	in.Model = m
	in.phase = 0
	in.nextDraw = m.PhaseLen
}

// Tick advances the Markov phase machine to the given cycle. Call once per
// cycle with a monotonically increasing cycle count.
func (in *Instance) Tick(now int64) {
	if now < in.nextDraw {
		return
	}
	in.nextDraw = now + in.Model.PhaseLen
	r := in.rng.Float64()
	next := in.Model.Phases[in.phase].Next
	for i, p := range next {
		r -= p
		if r < 0 {
			in.phase = i
			break
		}
	}
}

// Cur returns the active phase.
func (in *Instance) Cur() *Phase { return &in.Model.Phases[in.phase] }

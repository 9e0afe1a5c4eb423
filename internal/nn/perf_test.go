package nn

import (
	"math"
	"math/rand"
	"testing"
)

// apuNet builds the paper's 504->42->42 APU Q-network shape (Section 4.6),
// the largest MLP on the simulate/train hot path.
func apuNet() *MLP {
	return New([]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU},
		rand.New(rand.NewSource(11)))
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// apuStates returns n inputs that look like the APU agent's traffic: 2 or 3 of
// the 42 slots hold a message (sparseStateVec), the other ~96% of the 504
// elements are zero padding.
func apuStates(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = sparseStateVec(rng, 504, 12, 2+rng.Intn(2))
	}
	return xs
}

// apuSparseStates is apuStates in the form the agent and replay memory hold
// states in.
func apuSparseStates(n int, seed int64) []SparseVec {
	svs := make([]SparseVec, n)
	for i, x := range apuStates(n, seed) {
		svs[i].Index(x)
	}
	return svs
}

// BenchmarkHotMLPForward stays on the dense entry point, like
// BenchmarkHotTrainAction and the batch benchmarks below: the cost of listing
// a 504-wide input's non-zero elements is part of what they keep on record.
// The *Sparse benchmarks are the same work as the agent does it.
func BenchmarkHotMLPForward(b *testing.B) {
	m := apuNet()
	xs := apuStates(64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(xs[i%len(xs)])
	}
}

// BenchmarkHotMLPForwardSparse is one decision's inference as core.Agent.Select
// runs it: the state as a SparseVec and the Q-values of three candidates.
func BenchmarkHotMLPForwardSparse(b *testing.B) {
	m := apuNet()
	xs := apuSparseStates(64, 7)
	outs := []int{3, 17, 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardSparse(xs[i%len(xs)], outs)
	}
}

// BenchmarkHotWriteBack is what a reader of Layers[0].W pays after training:
// the store transposed back into the row-major exchange form.
func BenchmarkHotWriteBack(b *testing.B) {
	m := apuNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.stale = true
		m.WriteBack()
	}
}

// BenchmarkHotMLPForwardDense keeps the cost of a fully dense input visible:
// it walks the same index list as a sparse one, only a full one.
func BenchmarkHotMLPForwardDense(b *testing.B) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkHotTrainAction(b *testing.B) {
	m := apuNet()
	xs := apuStates(64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainAction(xs[i%len(xs)], i%m.OutputSize(), 0.5, 0.001)
	}
}

// BenchmarkHotTrainActionSparse is one SGD step as rl.DQL.TrainBatch runs it.
func BenchmarkHotTrainActionSparse(b *testing.B) {
	m := apuNet()
	xs := apuSparseStates(64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainActionSparse(xs[i%len(xs)], i%m.OutputSize(), 0.5, 0.001)
	}
}

func BenchmarkHotTrainActionDense(b *testing.B) {
	m := apuNet()
	x := randVec(m.InputSize(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainAction(x, i%m.OutputSize(), 0.5, 0.001)
	}
}

// BenchmarkHotMLPForwardBatch32 measures the production batched-inference
// path — ForwardBatchFast, the one rl's chunked target inference rides
// (the fused AVX2+FMA kernels where available, exact sums otherwise).
func BenchmarkHotMLPForwardBatch32(b *testing.B) {
	m := apuNet()
	xs := apuStates(32, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatchFast(xs)
	}
}

// BenchmarkHotMLPForwardBatchSparse32 is the target bootstrap of one training
// batch as rl.DQL.TrainBatch runs it.
func BenchmarkHotMLPForwardBatchSparse32(b *testing.B) {
	m := apuNet()
	xs := apuSparseStates(32, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatchFastSparse(xs, nil)
	}
}

// portableAPUNet is apuNet as a host without AVX2 and FMA runs it: the
// layer-0 store on its Go loops, the backward pass and, for the rest of the
// benchmark, the sigmoid in Go, and every batch exact.
func portableAPUNet(b *testing.B) *MLP {
	var m *MLP
	withoutKernels(func() { m = apuNet() })
	v := vecSigmoid
	b.Cleanup(func() { vecSigmoid = v })
	vecSigmoid = false
	return m
}

// BenchmarkHotTrainActionSparsePortable is BenchmarkHotTrainActionSparse on
// the portable path.
func BenchmarkHotTrainActionSparsePortable(b *testing.B) {
	m := portableAPUNet(b)
	xs := apuSparseStates(64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainActionSparse(xs[i%len(xs)], i%m.OutputSize(), 0.5, 0.001)
	}
}

// BenchmarkHotMLPForwardBatchSparse32Portable is
// BenchmarkHotMLPForwardBatchSparse32 on the portable path.
func BenchmarkHotMLPForwardBatchSparse32Portable(b *testing.B) {
	m := portableAPUNet(b)
	xs := apuSparseStates(32, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatchFastSparse(xs, nil)
	}
}

// BenchmarkHotMLPForwardBatchExact32 measures the bit-identical batch path
// (ForwardBatch), the fallback and reference.
func BenchmarkHotMLPForwardBatchExact32(b *testing.B) {
	m := apuNet()
	xs := apuStates(32, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(xs)
	}
}

// benchSigmoid times applyTo(Sigmoid) on n pre-activations shaped like the
// hidden layer's, copied back in before every pass because applyTo works in
// place (the copy is a few percent of the op).
func benchSigmoid(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(13))
	src, zs := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64() * 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(zs, src)
		Sigmoid.applyTo(zs)
	}
}

// BenchmarkHotSigmoid42 is the hidden layer's activation in one Forward or
// TrainAction: ten groups of four on the AVX2 kernel and a scalar tail of two.
func BenchmarkHotSigmoid42(b *testing.B) { benchSigmoid(b, 42) }

// BenchmarkHotSigmoidPlane1344 is the hidden plane of one batch of 32 in
// forwardBatch.
func BenchmarkHotSigmoidPlane1344(b *testing.B) { benchSigmoid(b, 32*42) }

// BenchmarkHotQuantForward measures single-sample INT8 inference on the APU
// network — the software analog of the paper's Table 3 MAC-array engine.
func BenchmarkHotQuantForward(b *testing.B) {
	m := apuNet()
	xs := apuStates(64, 7)
	q := Quantize(m, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Forward(xs[i%len(xs)])
	}
}

// TestForwardBatchMatchesForward pins ForwardBatch's bit-identity contract:
// every row equals the corresponding sequential Forward call exactly, across
// architectures (including a widest-hidden-plane net, which stresses the
// nb*maxWidth scratch sizing), tile-remainder widths, and a shrink-then-grow
// batch-size sequence reusing one network's warm scratch.
func TestForwardBatchMatchesForward(t *testing.T) {
	archs := []struct {
		name  string
		sizes []int
		acts  []Activation
	}{
		{"square", []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}},
		// Widest plane is the hidden layer: the nb*maxWidth scratch sizing
		// must account for interior planes, not just input/output widths.
		{"wide-hidden", []int{6, 40, 4}, []Activation{Sigmoid, LeakyReLU}},
		// Odd widths exercise the 2-neuron tile's trailing-neuron path; a
		// 3-wide input exercises the all-tail (in < 4) kernel case.
		{"odd", []int{3, 7, 5}, []Activation{Tanh, Identity}},
	}
	for _, arch := range archs {
		m := New(arch.sizes, arch.acts, rand.New(rand.NewSource(4)))
		// Shrink-then-grow batch sequence on one network: scratch sized by
		// the 32-batch must survive shrinking to 3 and regrow at 64.
		for _, nb := range []int{1, 3, 32, 7, 3, 64, 5} {
			xs := make([][]float64, nb)
			for i := range xs {
				xs[i] = randVec(m.InputSize(), int64(100*nb+i))
			}
			rows := m.ForwardBatch(xs)
			if len(rows) != nb {
				t.Fatalf("%s batch %d: got %d rows", arch.name, nb, len(rows))
			}
			for b, x := range xs {
				want := m.Forward(x) // separate scratch; does not invalidate rows
				for j := range want {
					if rows[b][j] != want[j] {
						t.Fatalf("%s batch %d row %d out %d: ForwardBatch %v != Forward %v",
							arch.name, nb, b, j, rows[b][j], want[j])
					}
				}
			}
		}
	}
}

// ulpDistance returns the number of representable float64 values between a
// and b (0 when bit-identical).
func ulpDistance(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude float encoding onto the ordered integer line.
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestForwardBatchFastULP pins the ForwardBatchFast equivalence contract:
// FMA contraction and 4-lane interleaved partial sums may perturb each output
// by a few ULPs relative to sequential Forward, never more. The relative
// bound (512 ULPs ≈ 1e-13 relative) is paired with a tiny absolute floor for
// outputs that a cancelling sum drives toward zero, where ULPs lose meaning —
// a near-zero result can differ by hundreds of its own denormal-scale ULPs
// while the absolute error stays ~1e-18. Any kernel bug (wrong element,
// dropped tail, bad reduction) overshoots both bounds by orders of magnitude.
// Off amd64/AVX2 the fast path IS ForwardBatch and the distance is 0.
func TestForwardBatchFastULP(t *testing.T) {
	const (
		maxULP = 512
		absTol = 1e-12
	)
	for _, arch := range [][]int{{504, 42, 42}, {6, 40, 4}, {3, 7, 5}, {60, 15, 15}} {
		m := New(arch, []Activation{Sigmoid, LeakyReLU}, rand.New(rand.NewSource(8)))
		for _, nb := range []int{1, 4, 32, 33} {
			xs := make([][]float64, nb)
			for i := range xs {
				xs[i] = randVec(m.InputSize(), int64(300*nb+i))
			}
			rows := m.ForwardBatchFast(xs)
			for b, x := range xs {
				want := m.Forward(x)
				for j := range want {
					d := ulpDistance(rows[b][j], want[j])
					if d > maxULP && math.Abs(rows[b][j]-want[j]) > absTol {
						t.Fatalf("%v nb=%d row %d out %d: fast %v vs exact %v (%d ULPs)",
							arch, nb, b, j, rows[b][j], want[j], d)
					}
				}
			}
		}
	}
}

// allocCase is one call an allocation test requires to make no heap
// allocation once warm.
type allocCase struct {
	name string
	call func()
}

// requireNoAllocs fails for every case whose call allocates.
// testing.AllocsPerRun makes one warm-up call first, which grows the scratch a
// first call may size.
func requireNoAllocs(t *testing.T, cases ...allocCase) {
	t.Helper()
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.call); allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", c.name, allocs)
		}
	}
}

// The zero-allocation tests below take the inputs of the benchmarks above:
// a dense input, the APU agent's states as dense vectors and as the
// SparseVecs it holds them in, cycled as the benchmarks cycle them.

func TestForwardZeroAllocs(t *testing.T) {
	m := apuNet()
	x, xs, svs, i := randVec(m.InputSize(), 7), apuStates(64, 7), apuSparseStates(64, 7), 0
	requireNoAllocs(t,
		allocCase{"Forward (dense input)", func() { m.Forward(x) }},
		allocCase{"Forward (APU states)", func() { i++; m.Forward(xs[i%len(xs)]) }},
		allocCase{"ForwardSparse", func() { i++; m.ForwardSparse(svs[i%len(svs)], []int{3, 17, 40}) }},
	)
}

func TestTrainActionZeroAllocs(t *testing.T) {
	m := apuNet()
	x, xs, svs, i := randVec(m.InputSize(), 7), apuStates(64, 7), apuSparseStates(64, 7), 0
	requireNoAllocs(t,
		allocCase{"TrainAction (dense input)", func() { i++; m.TrainAction(x, i%m.OutputSize(), 0.5, 0.001) }},
		allocCase{"TrainAction (APU states)", func() { i++; m.TrainAction(xs[i%len(xs)], i%m.OutputSize(), 0.5, 0.001) }},
		allocCase{"TrainActionSparse", func() { i++; m.TrainActionSparse(svs[i%len(svs)], i%m.OutputSize(), 0.5, 0.001) }},
	)
}

func TestForwardBatchFastZeroAllocs(t *testing.T) {
	m := apuNet()
	xs, svs := apuStates(32, 20), apuSparseStates(32, 20)
	requireNoAllocs(t,
		allocCase{"ForwardBatchFast", func() { m.ForwardBatchFast(xs) }},
		allocCase{"ForwardBatchFastSparse", func() { m.ForwardBatchFastSparse(svs, nil) }},
	)
}

func TestForwardBatchZeroAllocs(t *testing.T) {
	m := apuNet()
	xs := apuStates(32, 20)
	requireNoAllocs(t, allocCase{"ForwardBatch", func() { m.ForwardBatch(xs) }})
}

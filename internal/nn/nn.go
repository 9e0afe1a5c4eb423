// Package nn implements the small multi-layer perceptrons used by the deep
// Q-learning agent: dense layers with sigmoid/ReLU/tanh activations, plain
// SGD backpropagation, Xavier initialization, weight introspection for the
// paper's heatmap analysis, and gob serialization.
//
// The paper's agents are deliberately shallow (one hidden layer) so their
// weights can be interpreted by a human architect (Sections 3.2 and 4.6);
// this package exposes exactly the weight statistics that analysis needs.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Sigmoid
	ReLU
	Tanh
	// LeakyReLU is max(x, 0.01*x). Q-value heads use it instead of plain
	// ReLU: with bootstrapped targets, an output neuron whose pre-activation
	// goes negative under plain ReLU receives zero gradient forever (the
	// "dying ReLU" problem) and its Q-value can never recover.
	LeakyReLU
)

// leakySlope is the negative-side slope of LeakyReLU.
const leakySlope = 0.01

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Sigmoid:
		return "sigmoid"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case LeakyReLU:
		return "leaky-relu"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

func (a Activation) apply(z float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-z))
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return math.Tanh(z)
	case LeakyReLU:
		if z < 0 {
			return leakySlope * z
		}
		return z
	}
	return z
}

// applyTo replaces the pre-activations zs with their activations in place,
// one loop per activation kind, every element bit-equal to apply's. The
// sigmoid's loop is sigmoidTo: four lanes at a time on an AVX2+FMA kernel that
// is math.Exp's amd64 FMA path op for op, where a start-up probe has found it
// to agree with apply, and apply's expression for a group of four holding a
// NaN or an |z| above 700, for the len%4 tail, and everywhere else.
func (a Activation) applyTo(zs []float64) {
	switch a {
	case Sigmoid:
		sigmoidTo(zs)
	case ReLU:
		for i, z := range zs {
			if z < 0 {
				zs[i] = 0
			}
		}
	case Tanh:
		for i, z := range zs {
			zs[i] = math.Tanh(z)
		}
	case LeakyReLU:
		for i, z := range zs {
			if z < 0 {
				zs[i] = leakySlope * z
			}
		}
	}
}

// vecSigmoid says whether sigmoidTo runs the AVX2+FMA kernel sigmoid4. The
// kernel is math.Exp's amd64 FMA path op for op, and math.Exp belongs to
// another package: a toolchain that changes it, or GODEBUG=cpu.fma=off, which
// sends it down its non-FMA path, must switch the kernel off rather than
// change a result. So the kernel runs only if, at start-up, it agrees with the
// scalar expression on a fixed list of values.
var vecSigmoid = hasFMAKernel && sigmoidAgrees(sigmoid4)

// sigmoidAgrees reports whether kernel, which has sigmoid4's contract, gives
// the scalar expression's bits on the 64 values of the start-up check, all
// within the kernel's range; math.Exp's two amd64 paths give different sigmoid
// bits on five of them.
func sigmoidAgrees(kernel func(zs *float64, groups int) int) bool {
	var probe [64]float64
	for i := range probe {
		probe[i] = float64(-0.61*float64(i)) - float64(0.0113*float64(i%7))
	}
	copy(probe[:], []float64{0, math.Copysign(0, -1), 1e-300, -1e-17, 36.5, 2.25, 699.5, -699.5})
	got := probe
	if kernel(&got[0], len(got)/4) != len(got)/4 {
		return false
	}
	for i, z := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(Sigmoid.apply(z)) {
			return false
		}
	}
	return true
}

// sigmoidTo replaces each z with 1/(1+exp(-z)). The kernel takes whole groups
// of four and stops in front of one it must not compute (a NaN, or |z| above
// 700); that group, or the len%4 tail, goes through the scalar expression, and
// the kernel resumes behind it.
func sigmoidTo(zs []float64) {
	for len(zs) > 0 {
		if vecSigmoid && len(zs) >= 4 {
			zs = zs[4*sigmoid4(&zs[0], len(zs)/4):]
		}
		rest := zs[:min(4, len(zs))]
		for i, z := range rest {
			rest[i] = 1 / (1 + math.Exp(-z))
		}
		zs = zs[len(rest):]
	}
}

// derivFromOutput returns f'(z) expressed via the activation output y=f(z).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - float64(y*y)
	case LeakyReLU:
		if y > 0 {
			return 1
		}
		return leakySlope
	}
	return 1
}

// Layer is one dense layer: out = act(W*x + b) with W stored row-major
// (W[j*In+i] is the weight from input i to neuron j).
type Layer struct {
	In, Out int
	W       []float64
	B       []float64
	Act     Activation
}

// MLP is a feed-forward multi-layer perceptron trained with SGD. It is not
// safe for concurrent use: Forward and the training methods share scratch
// buffers.
//
// The first layer takes its input as a SparseVec in every kernel and computes
// one term per listed entry, in inference and in the weight update; the dense
// entry points (Forward, TrainAction, ForwardBatch...) list the input's
// non-zero elements and call the same kernels. The router state vectors this
// network is built for are zero-padded for every buffer without a competing
// message (core.StateSpec), so nearly all of a dense layer 0's multiplications
// would be by zero. Leaving a term w*x with x == 0 (either sign of zero) out
// leaves every sum and every weight bit-identical to computing it, on one
// precondition: weights, biases and SGD steps are finite and no bias is -0.
// Such a term is w*0 = +-0, and adding or subtracting +-0 changes no non-zero
// value and no +0. So a vector may list zero-valued entries or not, and a
// dense input and its list give the same bits. The cases that differ are
// degenerate: a NaN or Inf weight times a zero input is NaN when computed and
// nothing when left out (which is why Load rejects non-finite parameters), and
// a sum or weight that is exactly -0 stays -0 when a +0 term is left out where
// computing it would give +0. There is no density threshold: a dense input is
// the same list, only a full one.
//
// Layer 0 storage. Every network owns layer 0 input-major (inputMajor,
// store.go): input i's weights to every neuron contiguous, each row and the
// biases padded with +0 to whole groups of four neurons. New, Load and Clone
// build that store and nothing drops it; it is the weights. Each store records
// at construction whether the AVX2 kernels (spmv_amd64.s) run it, which they
// do on a host with AVX2 and FMA (hasFMAKernel); otherwise Go loops run it,
// spelling the kernels' operations in the same order, each product rounded
// before it is added. Every forward pass computes layer 0 from the store, for
// all neurons at once. The exact sum (spmvExact) gives each neuron an
// accumulator that starts at the bias and takes w*v, entry by entry in list
// order; it serves Forward and ForwardSparse (which then computes every neuron
// of a one-layer network, selected or not), the training calls' forward pass,
// ForwardBatch, and within ForwardBatchFast what the tile kernel leaves to
// scalar code: the nb%4 trailing samples and an odd last neuron. On the
// kernels the full tiles of ForwardBatchFast and ForwardBatchFastSparse take
// spmvFused, which keeps fmaDot4x2's rounding: the entries bucketed by index
// mod 4, one chain of fused multiply-adds per lane from +0, bias +
// ((l0+l2)+(l1+l3)), then the in%4 tail in exact order; without the kernels
// those tiles are exact too. The single-input pass applies the activation over
// the padded width, so a 42-wide sigmoid is eleven groups of four and no scalar
// exp. Training steps the store in place: spmvSteps computes lr*delta per
// neuron, steps the biases whose delta is not zero and counts the zeros,
// spmvUpdate subtracts (lr*delta)*x from the one contiguous row of each listed
// input, and a call that holds a zero delta takes the rows in a Go loop that
// skips that neuron (a zero delta skips its row, which a step of lr*0 would
// not leave alone: -0 - -0 is +0). Past layer 0 a network on the kernels runs
// the backward pass's row loops on them too: axpy for a hidden delta's terms
// (dl += w*d) and a deeper row's update (w -= (lr*d)*in), sigmoidGrad for the
// sigmoid's derivative (dl *= y*(1-y)), each product rounded before it is
// added, as the Go loops beside them round it. The tests hold a store on the
// kernels to one on the Go loops, bit for bit.
//
// Layers[0].W and .B stay row-major and are the exchange form: what Save
// writes, Quantize and the heatmap means read, and callers outside the package
// may look at. They are current after New, Load and Clone of a current
// network, and fall behind as soon as the network is trained or is the
// destination of a CopyFrom; WriteBack brings them up to date (a no-op when
// they are), and Save, Quantize, InputWeightAbsMean and InputWeightSignedMean
// call it themselves. Outside this package they are read-only: no forward pass
// or update looks at them, so a weight written there is never used, and the
// next WriteBack after training overwrites it. CopyFrom and Clone read their
// source's store and write nothing to the source, so one network may be cloned
// from many goroutines at once. Deeper layers have one form, Layers[l].W,
// always current.
//
// The last layer computes only the outputs a caller asks for (the outs
// argument of ForwardSparse and ForwardBatchFastSparse; TrainActionSparse asks
// for the one action, and backprop then looks at that delta alone). Each
// output neuron's sum is independent of the others, so every value that is
// computed is bit-identical to the one a full pass computes; in a batch, where
// the fast path's rounding depends on a row's and a neuron's place in the 4x2
// tiling, a listed output is computed in the rounding its place gives it
// (forwardSelected, with fmaDotOuts for the tiled case). Layer 0 and the hidden
// layers are computed in full, and a one-layer network computes every output.
//
// Go may fuse x*y+z into one rounding on some architectures (arm64 does); an
// explicit float64(x*y) forbids it, so every product that is added in this
// package is written that way, and amd64, which never fuses, gives the same
// bits either way.
type MLP struct {
	Layers []*Layer

	// scratch: acts[l+1] is the output of layer l; acts[0] is unused, the
	// input lives in the caller's SparseVec (or in in).
	acts   [][]float64
	deltas [][]float64
	// in is the list the single-input dense entry points make of their input,
	// bin the lists the batched ones make of theirs (grown on first use).
	in  SparseVec
	bin []SparseVec
	// maxOut is the widest layer output, sizing the batched-inference planes;
	// every lists 0..maxOut-1, what "all neurons" is for a loop over a list.
	maxOut int
	every  []int
	// bacts are the two ping-pong row-major activation planes of
	// ForwardBatch (nb x width each); brows holds the row headers of the
	// plane last written, which the call returns.
	bacts [2][]float64
	brows [][]float64
	// steps are the element offsets 0, 4, 8, ... of the 4-wide steps the
	// tile kernel takes over a deeper layer's inputs.
	steps []int32
	// store is layer 0, the weights themselves. stale says the store has
	// changed since Layers[0].W and .B were last made equal to it.
	store *inputMajor
	stale bool
}

// New constructs an MLP with the given layer sizes (len >= 2) and one
// activation per weight layer (len(acts) == len(sizes)-1), Xavier-initialized
// from rng.
func New(sizes []int, acts []Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	if len(acts) != len(sizes)-1 {
		panic("nn: need one activation per layer")
	}
	m := &MLP{}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		if in <= 0 || out <= 0 {
			panic("nn: layer sizes must be positive")
		}
		layer := &Layer{
			In:  in,
			Out: out,
			W:   make([]float64, in*out),
			B:   make([]float64, out),
			Act: acts[l],
		}
		bound := math.Sqrt(6 / float64(in+out))
		for i := range layer.W {
			u := float64(rng.Float64()) // rounded, so that no product inside it fuses
			layer.W[i] = (float64(u*2) - 1) * bound
		}
		m.Layers = append(m.Layers, layer)
	}
	m.allocScratch()
	m.adopt()
	return m
}

// allocScratch sizes the scratch buffers for m.Layers and gives the network
// its layer-0 store, still empty (see adopt).
func (m *MLP) allocScratch() {
	m.acts = make([][]float64, len(m.Layers)+1)
	m.deltas = make([][]float64, len(m.Layers))
	deepIn := 0
	for l, layer := range m.Layers {
		// Room for whole groups of four: layer 0 writes its
		// activations that wide and reads its deltas that wide, +0 past Out.
		m.acts[l+1] = make([]float64, layer.Out, (layer.Out+3)&^3)
		m.deltas[l] = make([]float64, layer.Out, (layer.Out+3)&^3)
		m.maxOut = max(m.maxOut, layer.Out)
		if l > 0 {
			deepIn = max(deepIn, layer.In)
		}
	}
	m.every = make([]int, m.maxOut)
	for j := range m.every {
		m.every[j] = j
	}
	m.steps = make([]int32, deepIn/4)
	for s := range m.steps {
		m.steps[s] = int32(4 * s)
	}
	m.store = newInputMajor(m.Layers[0])
}

// adopt makes Layers[0].W and .B, as they are now, the network's layer 0: the
// store is filled from them. Construction ends with it, and code in this
// package that writes Layers[0] by hand calls it afterwards.
func (m *MLP) adopt() {
	m.store.fill(m.Layers[0])
	m.stale = false
}

// WriteBack brings Layers[0].W and .B up to date with the network's layer 0,
// which training and CopyFrom change elsewhere (see MLP, "Layer 0 storage").
// Call it before reading them; it costs nothing when they are current.
func (m *MLP) WriteBack() {
	if m.stale {
		m.store.writeBack(m.Layers[0])
		m.stale = false
	}
}

// InputSize returns the width of the input layer.
func (m *MLP) InputSize() int { return m.Layers[0].In }

// OutputSize returns the width of the output layer.
func (m *MLP) OutputSize() int { return m.Layers[len(m.Layers)-1].Out }

// NumParams returns the total number of weights and biases.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

// Forward runs inference. The returned slice is an internal buffer, valid
// until the next Forward/training call; copy it to retain it.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forward(m.index(x), nil)
}

// ForwardSparse is Forward on an input given as a SparseVec, computing only
// the outputs listed in outs (all of them when outs is empty). The returned
// slice is OutputSize long, so an output is read at its own index; only the
// listed elements mean anything, and each is bit-identical to what Forward
// returns there for the dense form of x.
func (m *MLP) ForwardSparse(x SparseVec, outs []int) []float64 {
	m.checkSparse(x)
	return m.forward(x, outs)
}

// index lists the non-zero elements of a dense input in m.in.
func (m *MLP) index(x []float64) SparseVec {
	if in := m.Layers[0].In; len(x) != in {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in))
	}
	m.in.Index(x)
	return m.in
}

// checkSparse panics on a vector the kernels cannot run on safely. Ascending
// order is the caller's contract: with it, the first and the last index bound
// all of them.
func (m *MLP) checkSparse(x SparseVec) {
	n := len(x.Idx)
	if n != len(x.Val) {
		panic(fmt.Sprintf("nn: sparse input has %d indices for %d values", n, len(x.Val)))
	}
	if in := m.Layers[0].In; n > 0 && (x.Idx[0] < 0 || int(x.Idx[n-1]) >= in) {
		panic(fmt.Sprintf("nn: sparse input index outside [0, %d)", in))
	}
}

// forward is the one single-input forward pass. Layer 0 adds, to each bias,
// one term per entry of x in list order, for every neuron; deeper layers are
// dense. Of the last layer past layer 0 only the neurons in outs are computed
// (all when outs is empty); the other elements of the returned slice keep
// whatever an earlier call left.
func (m *MLP) forward(x SparseVec, outs []int) []float64 {
	f, last := m.store, len(m.Layers)-1
	z := m.acts[1][:f.width]
	f.exact(z, f.b, x.Idx, x.Val)
	m.Layers[0].Act.applyTo(z)
	for l := 1; l <= last; l++ {
		var want []int
		if l == last {
			want = outs
		}
		m.Layers[l].forwardDense(m.acts[l+1], m.acts[l], want)
	}
	return m.acts[len(m.Layers)]
}

// forwardDense computes z = act(W*in + b) for the neurons in want (all when
// want is empty).
func (l *Layer) forwardDense(z, in []float64, want []int) {
	n, selected := l.Out, len(want) > 0
	if selected {
		n = len(want)
	}
	for k := 0; k < n; k++ {
		j := k
		if selected {
			j = want[k]
		}
		row := l.W[j*l.In : (j+1)*l.In]
		in := in[:len(row)] // one bounds check; elides them in the loop
		s := l.B[j]
		for i, w := range row {
			s += float64(w * in[i])
		}
		if selected {
			s = l.Act.apply(s)
		}
		z[j] = s
	}
	if !selected {
		l.Act.applyTo(z)
	}
}

// ForwardBatch runs inference on a batch of inputs and returns one Q-row per
// input. Each row is computed with exactly Forward's per-row summation order
// (bias first, then weights in ascending input order), so a batched evaluation
// is bit-identical to len(xs) sequential Forward calls — the blocked kernel
// below only changes *which* dot products are in flight simultaneously, never
// the order of additions within one.
//
// Aliasing contract: the returned row headers and the activations they point
// at live in internal scratch (m.brows/m.bacts) that the NEXT batched call on
// this network overwrites. Callers must finish reading (or copy) every row of
// one batch before issuing the next — see rl.DQL.TrainBatch, whose
// SyncEvery-chunked target inference consumes each chunk's rows completely
// before requesting the next chunk. Forward and the training methods use
// separate scratch (m.acts) and do not invalidate batch rows.
func (m *MLP) ForwardBatch(xs [][]float64) [][]float64 {
	return m.forwardBatch(m.indexBatch(xs), nil, false)
}

// ForwardBatchFast is ForwardBatch running on the AVX2+FMA microkernel when
// the CPU supports it (gemm_amd64.s): four float64 lanes per accumulator and
// fused multiply-adds. Fusing and lane-interleaved partial sums change the
// rounding of each dot product, so rows are NOT bit-identical to Forward —
// they agree to within a few ULPs (pinned by TestForwardBatchFastULP). Use it
// where throughput matters and ULP-exactness does not, as for Bellman targets,
// which are estimates whose ULP noise is far below the TD error they carry
// (rl bootstraps through ForwardBatchFastSparse, the same arithmetic). Without
// CPU support it is exactly ForwardBatch. The aliasing contract is
// ForwardBatch's: rows are valid until the next batched call, either flavor.
func (m *MLP) ForwardBatchFast(xs [][]float64) [][]float64 {
	return m.forwardBatch(m.indexBatch(xs), nil, hasFMAKernel)
}

// ForwardBatchFastSparse is ForwardBatchFast on inputs given as SparseVecs,
// computing of row b only the outputs outs[b] lists (all of them when the list
// is empty, and for every row when outs is nil), as ForwardSparse does for one
// input. Every returned row is OutputSize long; its listed elements are
// bit-identical to the ones ForwardBatchFast returns for the dense forms of
// the same batch, and the others mean nothing. It panics, before computing
// anything, if outs is neither nil nor one list per input, or lists an output
// outside [0, OutputSize).
func (m *MLP) ForwardBatchFastSparse(xs []SparseVec, outs [][]int) [][]float64 {
	for _, x := range xs {
		m.checkSparse(x)
	}
	if outs != nil {
		if len(outs) != len(xs) {
			panic(fmt.Sprintf("nn: %d output lists for %d inputs", len(outs), len(xs)))
		}
		n := m.OutputSize()
		for _, js := range outs {
			for _, j := range js {
				if uint(j) >= uint(n) {
					panic(fmt.Sprintf("nn: output %d out of range %d", j, n))
				}
			}
		}
	}
	return m.forwardBatch(xs, outs, hasFMAKernel)
}

// indexBatch lists the non-zero elements of each dense input in m.bin.
func (m *MLP) indexBatch(xs [][]float64) []SparseVec {
	in0 := m.Layers[0].In
	if len(m.bin) < len(xs) {
		m.bin = append(m.bin, make([]SparseVec, len(xs)-len(m.bin))...)
	}
	bin := m.bin[:len(xs)]
	for b, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in0))
		}
		bin[b].Index(x)
	}
	return bin
}

// forwardBatch computes the batch layer by layer, each into a row-major plane.
// With outs, a last layer past layer 0 computes only the listed outputs of
// each row (forwardSelected); layer 0 and the hidden planes are computed in
// full either way. fma asks for the fused tiles, which a network whose store
// runs on the Go loops does not have.
func (m *MLP) forwardBatch(xs []SparseVec, outs [][]int, fma bool) [][]float64 {
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	f := m.store
	fma = fma && f.kernels
	// Three floats of slack: layer 0 writes its last row out to a whole group
	// of four.
	if need := nb*m.maxOut + 3; cap(m.bacts[0]) < need {
		m.bacts[0] = make([]float64, need)
		m.bacts[1] = make([]float64, need)
	}
	if cap(m.brows) < nb {
		m.brows = make([][]float64, nb)
	}
	// Layer 0 reads the callers' lists; every deeper layer reads the plane
	// the one before it wrote, through m.brows.
	rows, last := m.brows[:nb], len(m.Layers)-1
	for l, layer := range m.Layers {
		out := layer.Out
		next := m.bacts[l&1][:nb*out]
		selected := l == last && l > 0 && outs != nil
		switch {
		case l == 0:
			f.forwardBatch(xs, next[:len(next)+f.width-out], fma)
		case selected:
			layer.forwardSelected(rows, next, outs, m.every[:out], fma)
		default:
			layer.forwardBlocked(rows, next, m.steps[:layer.In/4], fma)
		}
		if !selected {
			layer.Act.applyTo(next)
		}
		for b := range rows {
			rows[b] = next[b*out : (b+1)*out : (b+1)*out]
		}
	}
	return rows
}

// forwardBlocked computes a deeper layer's pre-activations next = rows · Wᵀ + b
// tile by tile; steps are the offsets of its 4-wide steps, 0, 4, ... up to
// In&^3 exclusive.
func (l *Layer) forwardBlocked(rows [][]float64, next []float64, steps []int32, fma bool) {
	for b := 0; b < len(rows); b += 4 {
		l.forwardTile(rows[b:min(b+4, len(rows))], next[b*l.Out:], steps, fma)
	}
}

// forwardTile computes the pre-activations of one tile of up to four batch
// rows into the row-major plane next (the tile's first row at next[0]),
// register-blocked 4 batch rows x 2 neurons. The naive j-outer/b-inner
// formulation runs each (neuron, sample) dot product as one dependent
// float-add chain (latency-bound: one flop per FP-add latency) and re-streams
// the whole batch from L2 once per neuron. The 4x2 tile keeps 8 independent
// accumulators in registers, so the inner loop retires 8 independent
// multiply-adds per input element while each loaded weight is reused across 4
// samples and each loaded activation across 2 neurons — throughput-bound, and
// the batch is streamed out/2 times instead of out times.
//
// Without fma every accumulator starts at its neuron's bias and adds
// w[i]*x[i] in ascending i — Forward's summation order — so the result is
// bit-identical to the scalar loop. With fma the 4x2 tile's steps run on the
// AVX2+FMA assembly microkernel: each accumulator is four interleaved fused
// partial sums, lane = i mod 4, reduced in a fixed order at the end, which
// trades Forward's exact rounding for ~4x the arithmetic throughput (the
// ForwardBatchFast contract). The bias and the in%4 tail are added in scalar
// code; tile remainders (odd neuron, nb mod 4 samples) always take the scalar
// order. The caller applies the activation to the finished plane.
func (l *Layer) forwardTile(tile [][]float64, next []float64, steps []int32, fma bool) {
	in, out := l.In, l.Out
	if len(tile) < 4 { // trailing samples (nb mod 4): one row at a time
		for r, x := range tile {
			x = x[:in]
			for j := 0; j < out; j++ {
				z := l.B[j]
				for i, w := range l.W[j*in : (j+1)*in] {
					z += float64(w * x[i])
				}
				next[r*out+j] = z
			}
		}
		return
	}
	x0, x1, x2, x3 := tile[0][:in], tile[1][:in], tile[2][:in], tile[3][:in]
	from := 0 // the first input the scalar loop of a 4x2 tile still has to add
	if fma {
		from = 4 * len(steps)
	}
	var sums [8]float64
	j := 0
	for ; j+2 <= out; j += 2 {
		w0 := l.W[(j+0)*in : (j+1)*in]
		w1 := l.W[(j+1)*in : (j+2)*in]
		b0, b1 := l.B[j], l.B[j+1]
		z00, z01 := b0, b1
		z10, z11 := b0, b1
		z20, z21 := b0, b1
		z30, z31 := b0, b1
		if fma && len(steps) > 0 {
			fmaDot4x2(&w0[0], &w1[0], &x0[0], &x1[0], &x2[0], &x3[0], &steps[0], len(steps), &sums)
			z00, z01 = z00+sums[0], z01+sums[1]
			z10, z11 = z10+sums[2], z11+sums[3]
			z20, z21 = z20+sums[4], z21+sums[5]
			z30, z31 = z30+sums[6], z31+sums[7]
		}
		for i := from; i < in; i++ {
			w, v := w0[i], w1[i]
			e0, e1, e2, e3 := x0[i], x1[i], x2[i], x3[i]
			z00 += float64(w * e0)
			z01 += float64(v * e0)
			z10 += float64(w * e1)
			z11 += float64(v * e1)
			z20 += float64(w * e2)
			z21 += float64(v * e2)
			z30 += float64(w * e3)
			z31 += float64(v * e3)
		}
		next[0*out+j], next[0*out+j+1] = z00, z01
		next[1*out+j], next[1*out+j+1] = z10, z11
		next[2*out+j], next[2*out+j+1] = z20, z21
		next[3*out+j], next[3*out+j+1] = z30, z31
	}
	if j < out { // odd trailing neuron: 4 samples, 1 weight row
		bj := l.B[j]
		z0, z1, z2, z3 := bj, bj, bj, bj
		for i, w := range l.W[j*in : (j+1)*in] {
			z0 += float64(w * x0[i])
			z1 += float64(w * x1[i])
			z2 += float64(w * x2[i])
			z3 += float64(w * x3[i])
		}
		next[0*out+j] = z0
		next[1*out+j] = z1
		next[2*out+j] = z2
		next[3*out+j] = z3
	}
}

// forwardSelected computes, for each of the batch rows, the activations of the
// outputs outs[b] lists (every output when the list is empty) into the
// row-major plane next; the other elements keep what they held. Each listed
// output gets the bits forwardTile and applyTo give it in a full pass, which
// depend on where the row and the neuron sit in the tiling: in a full tile of
// four rows and a full pair of neurons under fma, bias + fmaDotOuts's lane sum
// (fmaDot4x2's), then the In%4 tail in scalar order; for the nb%4 trailing
// rows, an odd last neuron and every row without fma, the bias then every
// term in scalar order. The caller has checked the lists.
func (l *Layer) forwardSelected(rows [][]float64, next []float64, outs [][]int, every []int, fma bool) {
	in, out, nsteps := l.In, l.Out, l.In/4
	full, pairs := 0, out&^1
	if fma && nsteps > 0 {
		full = len(rows) &^ 3
	}
	var sums [8]float64
	for b, x := range rows {
		x, z, js := x[:in], next[b*out:][:out], outs[b]
		if len(js) == 0 {
			js = every
		}
		for len(js) > 0 {
			chunk := js[:min(len(js), len(sums))]
			js = js[len(chunk):]
			if b < full {
				fmaDotOuts(&x[0], &l.W[0], in, nsteps, &chunk[0], len(chunk), &sums)
			}
			for k, j := range chunk {
				row, s, from := l.W[j*in:][:in], l.B[j], 0
				if b < full && j < pairs {
					s, from = s+sums[k], 4*nsteps
				}
				for i, w := range row[from:] {
					s += float64(w * x[from+i])
				}
				z[j] = l.Act.apply(s)
			}
		}
	}
}

// backprop applies one SGD step from the output deltas trainAction has left in
// m.deltas[last], using the hidden activations left in m.acts by the
// immediately preceding forward call on x, avoiding a duplicate forward pass.
// Callers must not have mutated weights since that forward. Only the action's
// output delta may be non-zero; the others must be zero, and are not read past
// layer 0.
//
// Deltas propagate k-outer over the next layer's neurons: each delta[j] still
// sums its terms in ascending k order, bit-identical to the j-outer loop, and
// a zero delta skips its weight row, as it skips its row in the update. Past
// layer 0 a network whose store runs on the AVX2 kernels runs those row loops,
// and the sigmoid's derivative, on them too, each operation rounded as the Go
// loop beside it rounds it.
func (m *MLP) backprop(x SparseVec, lr float64, action int) {
	last, vec := len(m.Layers)-1, m.store.kernels
	for l := last - 1; l >= 0; l-- {
		layer, next := m.Layers[l], m.Layers[l+1]
		dl, y := m.deltas[l][:layer.Out], m.acts[l+1][:layer.Out]
		clear(dl)
		for _, k := range m.nonZero(l+1, action) {
			d := m.deltas[l+1][k]
			if d == 0 {
				continue
			}
			row := next.W[k*next.In:][:len(dl)]
			if vec {
				axpy(&dl[0], &row[0], d, len(dl))
				continue
			}
			for j, w := range row {
				dl[j] += float64(w * d)
			}
		}
		if vec && layer.Act == Sigmoid {
			sigmoidGrad(&dl[0], &y[0], len(dl))
			continue
		}
		for j := range dl {
			dl[j] *= layer.Act.derivFromOutput(y[j])
		}
	}
	m.store.update(m.deltas[0], x.Idx, x.Val, lr)
	m.stale = true
	for l := 1; l <= last; l++ {
		layer := m.Layers[l]
		in := m.acts[l][:layer.In]
		for _, j := range m.nonZero(l, action) {
			d := m.deltas[l][j]
			if d == 0 {
				continue
			}
			row, step := layer.W[j*layer.In:][:len(in)], float64(lr*d)
			if vec {
				axpy(&row[0], &in[0], -step, len(row))
			} else {
				for i := range row {
					row[i] -= float64(step * in[i])
				}
			}
			layer.B[j] -= step
		}
	}
}

// nonZero lists the neurons of layer l whose deltas backprop must look at:
// the action in the last layer, every neuron in the others.
func (m *MLP) nonZero(l, action int) []int {
	if l == len(m.Layers)-1 {
		return m.every[action : action+1]
	}
	return m.every[:m.Layers[l].Out]
}

// TrainAction performs one Q-learning SGD step: only the selected action's
// output is pushed toward target; all other outputs receive zero gradient.
// It returns the pre-step squared error on the action.
func (m *MLP) TrainAction(x []float64, action int, target, lr float64) float64 {
	return m.trainAction(m.index(x), action, target, lr)
}

// TrainActionSparse is TrainAction on an input given as a SparseVec: the same
// returned error and the same weights afterwards, bit for bit, as TrainAction
// on the dense form of x.
func (m *MLP) TrainActionSparse(x SparseVec, action int, target, lr float64) float64 {
	m.checkSparse(x)
	return m.trainAction(x, action, target, lr)
}

// trainAction computes the action's output alone: the other outputs are not
// needed for a gradient that is zero, their deltas are set to zero directly,
// and backprop is told that the action's is the one to look at.
func (m *MLP) trainAction(x SparseVec, action int, target, lr float64) float64 {
	if n := m.OutputSize(); action < 0 || action >= n {
		panic(fmt.Sprintf("nn: action %d out of range %d", action, n))
	}
	y := m.forward(x, m.every[action:action+1])
	e := y[action] - target
	last := len(m.Layers) - 1
	clear(m.deltas[last])
	m.deltas[last][action] = e * m.Layers[last].Act.derivFromOutput(y[action])
	m.backprop(x, lr, action)
	return e * e
}

// CopyFrom copies all weights and biases from src, which must have an
// identical architecture, activations included. Used to refresh the DQL target
// network. It reads src and writes nothing to it; layer 0 is one
// store-to-store copy, and m's Layers[0].W and .B fall behind until WriteBack.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: CopyFrom architecture mismatch")
	}
	for l, layer := range m.Layers {
		s := src.Layers[l]
		if layer.In != s.In || layer.Out != s.Out {
			panic("nn: CopyFrom layer shape mismatch")
		}
		if layer.Act != s.Act {
			panic(fmt.Sprintf("nn: CopyFrom layer %d activation mismatch: %v from %v", l, layer.Act, s.Act))
		}
	}
	for l, layer := range m.Layers[1:] {
		copy(layer.W, src.Layers[l+1].W)
		copy(layer.B, src.Layers[l+1].B)
	}
	copy(m.store.w, src.store.w)
	copy(m.store.b, src.store.b)
	m.stale = true
}

// Clone returns a deep copy with fresh scratch buffers. Like CopyFrom it only
// reads m; the clone's Layers[0].W and .B are as current as m's.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, &Layer{In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...)})
	}
	c.allocScratch()
	c.CopyFrom(m)
	c.stale = m.stale // Layers[0] was copied above, behind or not
	return c
}

// InputWeightAbsMean returns, for each input, the mean absolute first-layer
// weight across all hidden neurons — the quantity visualized in the paper's
// heatmaps (Figs. 4 and 7): darker pixels = larger mean |weight|.
func (m *MLP) InputWeightAbsMean() []float64 {
	m.WriteBack()
	l := m.Layers[0]
	out := make([]float64, l.In)
	for j := 0; j < l.Out; j++ {
		row := l.W[j*l.In : (j+1)*l.In]
		for i, w := range row {
			out[i] += math.Abs(w)
		}
	}
	for i := range out {
		out[i] /= float64(l.Out)
	}
	return out
}

// InputWeightSignedMean returns the signed mean first-layer weight per input.
// Section 4.6 uses the sign to discover that hop count is preferred large on
// N/S ports but small on W/E ports.
func (m *MLP) InputWeightSignedMean() []float64 {
	m.WriteBack()
	l := m.Layers[0]
	out := make([]float64, l.In)
	for j := 0; j < l.Out; j++ {
		row := l.W[j*l.In : (j+1)*l.In]
		for i, w := range row {
			out[i] += w
		}
	}
	for i := range out {
		out[i] /= float64(l.Out)
	}
	return out
}

// OutputWeightMean returns the mean of all final-layer weights. The paper
// checks that output-layer weights are mostly positive before reading hidden
// weight signs directly (Section 4.6).
func (m *MLP) OutputWeightMean() float64 {
	l := m.Layers[len(m.Layers)-1]
	sum := 0.0
	for _, w := range l.W {
		sum += w
	}
	return sum / float64(len(l.W))
}

// mlpWire is the gob wire format.
type mlpWire struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// Save writes the network weights to w in gob format.
func (m *MLP) Save(w io.Writer) error {
	m.WriteBack()
	wire := mlpWire{Sizes: []int{m.Layers[0].In}}
	for _, l := range m.Layers {
		wire.Sizes = append(wire.Sizes, l.Out)
		wire.Acts = append(wire.Acts, l.Act)
		wire.W = append(wire.W, l.W)
		wire.B = append(wire.B, l.B)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a network previously written with Save. It rejects what New
// would: a layer without inputs or neurons, and an activation code that is none
// of Identity..LeakyReLU (which would load and act as the identity). It also
// rejects non-finite weights and biases: the input-sparse first layer never
// multiplies them by a zero input, so unlike in a dense network they would
// poison some outputs and not others instead of failing loudly.
func Load(r io.Reader) (*MLP, error) {
	var wire mlpWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if len(wire.Sizes) < 2 || len(wire.Acts) != len(wire.Sizes)-1 ||
		len(wire.W) != len(wire.Acts) || len(wire.B) != len(wire.Acts) {
		return nil, fmt.Errorf("nn: load: malformed network")
	}
	m := &MLP{}
	for l := 0; l < len(wire.Acts); l++ {
		in, out := wire.Sizes[l], wire.Sizes[l+1]
		if in <= 0 || out <= 0 {
			return nil, fmt.Errorf("nn: load: layer %d is %d wide on %d inputs", l, out, in)
		}
		if a := wire.Acts[l]; a < Identity || a > LeakyReLU {
			return nil, fmt.Errorf("nn: load: layer %d has unknown activation %d", l, int(a))
		}
		if len(wire.W[l]) != in*out || len(wire.B[l]) != out {
			return nil, fmt.Errorf("nn: load: layer %d shape mismatch", l)
		}
		for _, params := range [][]float64{wire.W[l], wire.B[l]} {
			for _, v := range params {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("nn: load: layer %d holds a non-finite parameter (%v)", l, v)
				}
			}
		}
		m.Layers = append(m.Layers, &Layer{
			In: in, Out: out, Act: wire.Acts[l], W: wire.W[l], B: wire.B[l],
		})
	}
	m.allocScratch()
	m.adopt()
	return m, nil
}

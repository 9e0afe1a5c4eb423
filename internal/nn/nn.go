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
	"math/bits"
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
		return 1 - y*y
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
// The first layer is input-sparse in every kernel: a term w*x with x == 0
// (either sign of zero) is never computed, in inference or in the weight
// update. The router state vectors this network is built for are zero-padded
// for every buffer without a competing message (core.StateSpec), so nearly all
// of layer 0's multiplications would be by zero. Skipping such a term leaves
// every sum and every weight bit-identical to computing it, on one
// precondition: weights, biases and SGD steps are finite and no bias is -0.
// A skipped term is then w*0 = +-0, and adding or subtracting +-0 changes no
// non-zero value and no +0. The cases that differ are degenerate: a NaN or
// Inf weight times a zero input is NaN when computed and nothing when skipped
// (which is why Load rejects non-finite parameters), and a sum or weight that
// is exactly -0 stays -0 when a +0 term is skipped where computing it would
// give +0. There is no density threshold: a dense input walks the same index
// list, only a full one.
type MLP struct {
	Layers []*Layer

	// scratch: acts[0] is the input copy, acts[l+1] the output of layer l.
	acts   [][]float64
	deltas [][]float64
	// grad is the output-gradient scratch for TrainMSE/TrainAction; it is
	// all-zero between calls so TrainAction only touches one element.
	grad []float64
	// nz holds, ascending, the indices of the last Forward's non-zero inputs
	// (x != 0: both zeros are out, NaN is in) and nzv their values. Layer 0's
	// dot products and its weight update walk these and nothing else.
	nz  []int32
	nzv []float64
	// maxOut is the widest layer output, sizing the batched-inference planes.
	maxOut int
	// bacts are the two ping-pong row-major activation planes of
	// ForwardBatch (nb x width each); brows holds the row headers of the
	// plane last written, which the call returns.
	bacts [2][]float64
	brows [][]float64
	blk   blockScratch
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
			layer.W[i] = (rng.Float64()*2 - 1) * bound
		}
		m.Layers = append(m.Layers, layer)
	}
	m.allocScratch()
	return m
}

func (m *MLP) allocScratch() {
	m.acts = make([][]float64, len(m.Layers)+1)
	m.deltas = make([][]float64, len(m.Layers))
	in0 := m.Layers[0].In
	m.acts[0] = make([]float64, in0)
	m.nz = make([]int32, in0)
	m.nzv = make([]float64, in0)
	maxIn := 0
	for l, layer := range m.Layers {
		m.acts[l+1] = make([]float64, layer.Out)
		m.deltas[l] = make([]float64, layer.Out)
		m.maxOut = max(m.maxOut, layer.Out)
		maxIn = max(maxIn, layer.In)
	}
	m.grad = make([]float64, m.OutputSize())
	m.blk = newBlockScratch(maxIn)
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
	l0 := m.Layers[0]
	if len(x) != l0.In {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), l0.In))
	}
	// One pass copies the input and indexes its non-zero elements.
	a0, nz, nzv := m.acts[0][:len(x)], m.nz[:len(x)], m.nzv[:len(x)]
	n := 0
	for i, v := range x {
		a0[i] = v
		if v != 0 {
			nz[n], nzv[n] = int32(i), v
			n++
		}
	}
	nz, nzv = nz[:n], nzv[:n]
	m.nz, m.nzv = nz, nzv
	out := m.acts[1]
	for j := 0; j < l0.Out; j++ {
		row := l0.W[j*l0.In : (j+1)*l0.In]
		z := l0.B[j]
		for k, i := range nz {
			z += row[i] * nzv[k]
		}
		out[j] = l0.Act.apply(z)
	}
	for l := 1; l < len(m.Layers); l++ {
		layer := m.Layers[l]
		in, out := m.acts[l], m.acts[l+1]
		for j := 0; j < layer.Out; j++ {
			row := layer.W[j*layer.In : (j+1)*layer.In]
			in := in[:len(row)] // one bounds check; elides them in the loop
			z := layer.B[j]
			for i, w := range row {
				z += w * in[i]
			}
			out[j] = layer.Act.apply(z)
		}
	}
	return m.acts[len(m.Layers)]
}

// ForwardBatch runs inference on a batch of inputs and returns one Q-row per
// input. Each row is computed with exactly Forward's per-row summation order
// (bias first, then weights in ascending input order), so a batched evaluation
// is bit-identical to len(xs) sequential Forward calls — the blocked kernel
// below only changes *which* dot products are in flight simultaneously, never
// the order of additions within one.
//
// Aliasing contract: the returned row headers and the activations they point
// at live in internal scratch (m.brows/m.bacts) that the NEXT ForwardBatch
// call on this network overwrites. Callers must finish reading (or copy) every
// row of one batch before issuing the next — see rl.DQL.TrainBatch, whose
// SyncEvery-chunked target inference consumes each chunk's rows completely
// before requesting the next chunk. The inputs are read in place, not copied,
// so rows returned by one call must not be passed as inputs to the next.
// Forward and the training methods use separate scratch (m.acts) and do not
// invalidate batch rows.
func (m *MLP) ForwardBatch(xs [][]float64) [][]float64 {
	return m.forwardBatch(xs, false)
}

// ForwardBatchFast is ForwardBatch running on the AVX2+FMA microkernel when
// the CPU supports it (gemm_amd64.s): four float64 lanes per accumulator and
// fused multiply-adds. Fusing and lane-interleaved partial sums change the
// rounding of each dot product, so rows are NOT bit-identical to Forward —
// they agree to within a few ULPs (pinned by TestForwardBatchFastULP). Use it
// where throughput matters and ULP-exactness does not: rl's batched
// target-network inference rides this path (Bellman targets are estimates;
// ULP noise is far below the TD error they carry). Without CPU support it is
// exactly ForwardBatch. The aliasing contract is ForwardBatch's: rows are
// valid until the next batched call, either flavor.
func (m *MLP) ForwardBatchFast(xs [][]float64) [][]float64 {
	return m.forwardBatch(xs, hasFMAKernel)
}

func (m *MLP) forwardBatch(xs [][]float64, fma bool) [][]float64 {
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	in0 := m.Layers[0].In
	for _, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in0))
		}
	}
	if need := nb * m.maxOut; cap(m.bacts[0]) < need {
		m.bacts[0] = make([]float64, need)
		m.bacts[1] = make([]float64, need)
	}
	if cap(m.brows) < nb {
		m.brows = make([][]float64, nb)
	}
	// Layer 0 reads the caller's rows where they lie; every deeper layer
	// reads the plane the one before it wrote, through m.brows.
	rows := xs
	for l, layer := range m.Layers {
		out := layer.Out
		next := m.bacts[l&1][:nb*out]
		layer.forwardBlocked(rows, next, &m.blk, l == 0, fma)
		rows = m.brows[:nb]
		for b := range rows {
			rows[b] = next[b*out : (b+1)*out : (b+1)*out]
		}
	}
	return rows
}

// blockScratch holds the plans of the blocked batch kernels. A plan names the
// input elements a tile's dot products visit: steps are the element offsets of
// its 4-wide steps over the first in&^3 inputs, ascending; idx is the same
// steps spelled out element by element, followed by the in%4 tail. Layer 0
// gets a plan per tile that leaves out every step whose inputs are zero in all
// of the tile's samples (tilePlan); deeper layers use the dense plan, every
// step and every index, cut from allSteps and allIdx.
type blockScratch struct {
	flags            []uint64 // one bit per 4-wide step of the tile being planned
	steps, idx       []int32
	allSteps, allIdx []int32
}

func newBlockScratch(maxIn int) blockScratch {
	nsteps := maxIn / 4
	sc := blockScratch{
		flags:    make([]uint64, (nsteps+63)/64),
		steps:    make([]int32, nsteps),
		idx:      make([]int32, maxIn),
		allSteps: make([]int32, nsteps),
		allIdx:   make([]int32, maxIn),
	}
	for s := range sc.allSteps {
		sc.allSteps[s] = int32(4 * s)
	}
	for i := range sc.allIdx {
		sc.allIdx[i] = int32(i)
	}
	return sc
}

// tilePlan returns the plan of one tile of layer-0 input rows, each in wide:
// a 4-wide step is in it when any of its elements is non-zero in any row. The
// in%4 tail is always in idx. The result is valid until the next plan is made.
func (sc *blockScratch) tilePlan(tile [][]float64, in int) (steps, idx []int32) {
	nsteps := in / 4
	flags := sc.flags[:(nsteps+63)/64]
	clear(flags)
	for _, x := range tile {
		x = x[:4*nsteps]
		for s := 0; s < nsteps; s++ {
			// x != 0 on the bit patterns: shifting the sign out makes -0 a
			// zero and leaves NaN a non-zero.
			q := x[4*s : 4*s+4]
			any := math.Float64bits(q[0]) | math.Float64bits(q[1]) | math.Float64bits(q[2]) | math.Float64bits(q[3])
			if any<<1 != 0 {
				flags[s>>6] |= 1 << (s & 63)
			}
		}
	}
	return sc.flagged(flags, in)
}

// flagged spells out the plan of the steps whose bit is set in flags.
func (sc *blockScratch) flagged(flags []uint64, in int) (steps, idx []int32) {
	steps, idx = sc.steps[:0], sc.idx[:0]
	for w, word := range flags {
		for ; word != 0; word &= word - 1 {
			i := int32(4 * (w<<6 + bits.TrailingZeros64(word)))
			steps = append(steps, i)
			idx = append(idx, i, i+1, i+2, i+3)
		}
	}
	for i := in &^ 3; i < in; i++ {
		idx = append(idx, int32(i))
	}
	return steps, idx
}

// forwardBlocked computes next = act(rows · Wᵀ + b) into the row-major plane
// next, register-blocked 4 batch rows x 2 neurons. The naive j-outer/b-inner
// formulation runs each (neuron, sample) dot product as one dependent
// float-add chain (latency-bound: one flop per FP-add latency) and re-streams
// the whole batch from L2 once per neuron. The 4x2 tile keeps 8 independent
// accumulators in registers, so the inner loop retires 8 independent
// multiply-adds per input element while each loaded weight is reused across 4
// samples and each loaded activation across 2 neurons — throughput-bound, and
// the batch is streamed out/2 times instead of out times.
//
// Every loop walks the tile's plan (blockScratch): dense for deeper layers,
// and for layer 0 (sparse) without the steps that are zero across the tile.
// Without fma every accumulator starts at its neuron's bias and adds
// w[i]*x[i] in ascending i — Forward's summation order less terms that are
// +-0 — so the result is bit-identical to the scalar loop. With fma the 4x2
// tile's steps run on the AVX2+FMA assembly microkernel: each accumulator is
// four interleaved fused partial sums, lane = i mod 4, reduced in a fixed
// order at the end, which trades Forward's exact rounding for ~4x the
// arithmetic throughput (the ForwardBatchFast contract); a skipped step would
// have added +-0 to each lane, so the sparse plan leaves every lane, and the
// row, bit-equal to the dense one. The bias and the in%4 tail are added in
// scalar code; tile remainders (odd neuron, nb mod 4 samples) always take the
// scalar order.
func (l *Layer) forwardBlocked(rows [][]float64, next []float64, sc *blockScratch, sparse, fma bool) {
	in, out, act := l.In, l.Out, l.Act
	steps, idx := sc.allSteps[:in/4], sc.allIdx[:in]
	var sums [8]float64
	for b := 0; b < len(rows); b += 4 {
		tile := rows[b:min(b+4, len(rows))]
		if sparse {
			steps, idx = sc.tilePlan(tile, in)
		}
		if len(tile) < 4 { // trailing samples (nb mod 4): one row at a time
			for r, x := range tile {
				x = x[:in]
				for j := 0; j < out; j++ {
					row := l.W[j*in : (j+1)*in]
					z := l.B[j]
					for _, i := range idx {
						z += row[i] * x[i]
					}
					next[(b+r)*out+j] = act.apply(z)
				}
			}
			break
		}
		x0, x1, x2, x3 := tile[0][:in], tile[1][:in], tile[2][:in], tile[3][:in]
		rest := idx // what the scalar loop of a 4x2 tile still has to add
		if fma {
			rest = idx[4*len(steps):]
		}
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
			for _, i := range rest {
				w, v := w0[i], w1[i]
				e0, e1, e2, e3 := x0[i], x1[i], x2[i], x3[i]
				z00 += w * e0
				z01 += v * e0
				z10 += w * e1
				z11 += v * e1
				z20 += w * e2
				z21 += v * e2
				z30 += w * e3
				z31 += v * e3
			}
			next[(b+0)*out+j] = act.apply(z00)
			next[(b+0)*out+j+1] = act.apply(z01)
			next[(b+1)*out+j] = act.apply(z10)
			next[(b+1)*out+j+1] = act.apply(z11)
			next[(b+2)*out+j] = act.apply(z20)
			next[(b+2)*out+j+1] = act.apply(z21)
			next[(b+3)*out+j] = act.apply(z30)
			next[(b+3)*out+j+1] = act.apply(z31)
		}
		if j < out { // odd trailing neuron: 4 samples, 1 weight row
			w0 := l.W[j*in : (j+1)*in]
			bj := l.B[j]
			z0, z1, z2, z3 := bj, bj, bj, bj
			for _, i := range idx {
				w := w0[i]
				z0 += w * x0[i]
				z1 += w * x1[i]
				z2 += w * x2[i]
				z3 += w * x3[i]
			}
			next[(b+0)*out+j] = act.apply(z0)
			next[(b+1)*out+j] = act.apply(z1)
			next[(b+2)*out+j] = act.apply(z2)
			next[(b+3)*out+j] = act.apply(z3)
		}
	}
}

// Backprop performs one SGD step given dLoss/dOutput evaluated at the current
// forward pass of x. It recomputes the forward pass internally.
func (m *MLP) Backprop(x, outGrad []float64, lr float64) {
	m.Forward(x)
	m.backpropFromActs(outGrad, lr)
}

// backpropFromActs applies one SGD step using the activations left in m.acts
// by the immediately preceding Forward call, avoiding a duplicate forward
// pass. Callers must not have mutated weights since that Forward.
func (m *MLP) backpropFromActs(outGrad []float64, lr float64) {
	y := m.acts[len(m.Layers)]
	last := len(m.Layers) - 1
	outLayer := m.Layers[last]
	for j := range m.deltas[last] {
		m.deltas[last][j] = outGrad[j] * outLayer.Act.derivFromOutput(y[j])
	}
	// Propagate deltas backwards. The accumulation runs k-outer over the
	// next layer's neurons: each delta[j] still sums its terms in ascending
	// k order — bit-identical to the j-outer formulation — but zero deltas
	// (all but one output under Q-learning's single-action gradient) skip
	// their entire weight row, and the rows are walked contiguously.
	for l := last - 1; l >= 0; l-- {
		layer, next := m.Layers[l], m.Layers[l+1]
		outs := m.acts[l+1]
		dl := m.deltas[l][:layer.Out]
		for j := range dl {
			dl[j] = 0
		}
		for k := 0; k < next.Out; k++ {
			d := m.deltas[l+1][k]
			if d == 0 {
				continue
			}
			row := next.W[k*next.In : (k+1)*next.In]
			dl := dl[:len(row)]
			for j, w := range row {
				dl[j] += w * d
			}
		}
		for j := range dl {
			dl[j] *= layer.Act.derivFromOutput(outs[j])
		}
	}
	// Apply gradients. Layer 0 updates only the weights of the non-zero inputs
	// Forward indexed: the others would move by step*0.
	nz, nzv := m.nz, m.nzv[:len(m.nz)]
	for l, layer := range m.Layers {
		in := m.acts[l]
		for j := 0; j < layer.Out; j++ {
			d := m.deltas[l][j]
			if d == 0 {
				continue
			}
			row := layer.W[j*layer.In : (j+1)*layer.In]
			step := lr * d
			if l == 0 {
				for k, i := range nz {
					row[i] -= step * nzv[k]
				}
			} else {
				for i := range row {
					row[i] -= step * in[i]
				}
			}
			layer.B[j] -= step
		}
	}
}

// TrainMSE performs one SGD step toward target under 0.5*sum((y-t)^2) loss
// and returns the pre-step loss.
func (m *MLP) TrainMSE(x, target []float64, lr float64) float64 {
	y := m.Forward(x)
	if len(target) != len(y) {
		panic("nn: target size mismatch")
	}
	grad := m.grad
	loss := 0.0
	for j := range y {
		e := y[j] - target[j]
		grad[j] = e
		loss += 0.5 * e * e
	}
	m.backpropFromActs(grad, lr)
	for j := range grad {
		grad[j] = 0
	}
	return loss
}

// TrainAction performs one Q-learning SGD step: only the selected action's
// output is pushed toward target; all other outputs receive zero gradient.
// It returns the pre-step squared error on the action.
func (m *MLP) TrainAction(x []float64, action int, target, lr float64) float64 {
	y := m.Forward(x)
	if action < 0 || action >= len(y) {
		panic(fmt.Sprintf("nn: action %d out of range %d", action, len(y)))
	}
	e := y[action] - target
	grad := m.grad
	grad[action] = e
	m.backpropFromActs(grad, lr)
	grad[action] = 0
	return e * e
}

// CopyFrom copies all weights and biases from src, which must have an
// identical architecture. Used to refresh the DQL target network.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: CopyFrom architecture mismatch")
	}
	for l, layer := range m.Layers {
		s := src.Layers[l]
		if layer.In != s.In || layer.Out != s.Out {
			panic("nn: CopyFrom layer shape mismatch")
		}
		copy(layer.W, s.W)
		copy(layer.B, s.B)
	}
}

// Clone returns a deep copy with fresh scratch buffers.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Layer{In: l.In, Out: l.Out, Act: l.Act,
			W: make([]float64, len(l.W)), B: make([]float64, len(l.B))}
		copy(nl.W, l.W)
		copy(nl.B, l.B)
		c.Layers = append(c.Layers, nl)
	}
	c.allocScratch()
	return c
}

// InputWeightAbsMean returns, for each input, the mean absolute first-layer
// weight across all hidden neurons — the quantity visualized in the paper's
// heatmaps (Figs. 4 and 7): darker pixels = larger mean |weight|.
func (m *MLP) InputWeightAbsMean() []float64 {
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
	wire := mlpWire{Sizes: []int{m.Layers[0].In}}
	for _, l := range m.Layers {
		wire.Sizes = append(wire.Sizes, l.Out)
		wire.Acts = append(wire.Acts, l.Act)
		wire.W = append(wire.W, l.W)
		wire.B = append(wire.B, l.B)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a network previously written with Save. It rejects non-finite
// weights and biases: the input-sparse first layer never multiplies them by a
// zero input, so unlike in a dense network they would poison some outputs and
// not others instead of failing loudly.
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
	return m, nil
}

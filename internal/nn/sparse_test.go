package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the input-sparse first layer and the selected outputs (see
// MLP) against dense references that exist only here: denseForward/
// denseBackprop are the layer loops as they were before layer 0 learned to
// skip zeros, computing every output; denseStepBatch drives the production
// tile kernel on every layer, layer 0 read row-major from its exchange form,
// and fmaRefBatch spells the AVX2+FMA microkernel's arithmetic out in Go. The
// dense entry points and the sparse ones are both held to them. Every
// comparison is on math.Float64bits.

// denseForward is Forward with every layer dense, on m's own scratch.
func denseForward(m *MLP, x []float64) []float64 {
	m.acts[0] = append(m.acts[0][:0], x...)
	for l, layer := range m.Layers {
		in, out := m.acts[l], m.acts[l+1]
		for j := 0; j < layer.Out; j++ {
			row := layer.W[j*layer.In : (j+1)*layer.In]
			z := layer.B[j]
			for i, w := range row {
				z += float64(w * in[i])
			}
			out[j] = layer.Act.apply(z)
		}
	}
	return m.acts[len(m.Layers)]
}

// denseBackprop is backprop with a dense layer-0 weight update and every
// output's delta from outGrad, on the activations denseForward left in m.acts.
func denseBackprop(m *MLP, outGrad []float64, lr float64) {
	y := m.acts[len(m.Layers)]
	last := len(m.Layers) - 1
	for j := range m.deltas[last] {
		m.deltas[last][j] = outGrad[j] * m.Layers[last].Act.derivFromOutput(y[j])
	}
	for l := last - 1; l >= 0; l-- {
		layer, next := m.Layers[l], m.Layers[l+1]
		dl := m.deltas[l]
		for j := range dl {
			dl[j] = 0
		}
		for k := 0; k < next.Out; k++ {
			d := m.deltas[l+1][k]
			if d == 0 {
				continue
			}
			for j, w := range next.W[k*next.In : (k+1)*next.In] {
				dl[j] += float64(w * d)
			}
		}
		for j := range dl {
			dl[j] *= layer.Act.derivFromOutput(m.acts[l+1][j])
		}
	}
	for l, layer := range m.Layers {
		in := m.acts[l]
		for j := 0; j < layer.Out; j++ {
			d := m.deltas[l][j]
			if d == 0 {
				continue
			}
			row := layer.W[j*layer.In : (j+1)*layer.In]
			step := lr * d
			for i := range row {
				row[i] -= float64(step * in[i])
			}
			layer.B[j] -= step
		}
	}
}

func denseTrainAction(m *MLP, x []float64, action int, target, lr float64) float64 {
	e := denseForward(m, x)[action] - target
	grad := make([]float64, m.OutputSize())
	grad[action] = e
	denseBackprop(m, grad, lr)
	return e * e
}

// sparseStateVec returns a state vector shaped like core.StateSpec's: k of the
// len/width blocks hold one message's features, every other element is zero.
// A 12-wide block is core.AllFeatures — six scalars in [0,1), of which hop
// count and local age are often 0, then two 3-wide one-hots; any other width
// is all scalars. The benchmark's APU traffic has k of 2-3 (17 non-zero
// inputs of 504 on average).
func sparseStateVec(rng *rand.Rand, n, width, k int) []float64 {
	x := make([]float64, n)
	for _, slot := range rng.Perm(n / width)[:k] {
		blk := x[slot*width : (slot+1)*width]
		scalars := width
		if width == 12 {
			scalars = 6
			blk[6+rng.Intn(3)] = 1
			blk[9+rng.Intn(3)] = 1
		}
		for i := 0; i < scalars; i++ {
			if rng.Intn(4) > 0 {
				blk[i] = rng.Float64()
			}
		}
	}
	return x
}

// inputKinds are the input shapes the differential tests mix: what the
// traffic looks like, the fully dense worst case, and the edge cases of the
// zero test (nothing to index, a negative zero, exactly one entry).
var inputKinds = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"block-sparse", func(rng *rand.Rand, n int) []float64 {
		width := 12
		if n < 3*width {
			width = 1
		}
		return sparseStateVec(rng, n, width, 1+rng.Intn(3))
	}},
	{"dense", func(rng *rand.Rand, n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		return x
	}},
	{"all-zero", func(rng *rand.Rand, n int) []float64 { return make([]float64, n) }},
	{"negative-zero", func(rng *rand.Rand, n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(3) {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = rng.Float64() - 0.5
			}
		}
		return x
	}},
	{"single", func(rng *rand.Rand, n int) []float64 {
		x := make([]float64, n)
		x[rng.Intn(n)] = rng.Float64() + 0.1
		return x
	}},
}

// sparseArchs covers the APU and mesh agents, widths not divisible by 4 (the
// blocked kernels' tail), inputs narrower than one 4-wide step, and 1-layer
// nets, where layer 0 is also the output layer.
var sparseArchs = []struct {
	sizes []int
	acts  []Activation
}{
	{[]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}},
	{[]int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}},
	{[]int{13, 7, 5}, []Activation{Tanh, Identity}},
	{[]int{3, 6, 4}, []Activation{ReLU, Sigmoid}},
	{[]int{9, 4}, []Activation{Identity}},
	{[]int{38, 3}, []Activation{LeakyReLU}},
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireSameWeights compares two networks' weights and biases in their
// exchange form, written back first.
func requireSameWeights(t *testing.T, what string, got, want *MLP) {
	t.Helper()
	got.WriteBack()
	want.WriteBack()
	for l := range want.Layers {
		requireSameBits(t, what+": layer W", got.Layers[l].W, want.Layers[l].W)
		requireSameBits(t, what+": layer B", got.Layers[l].B, want.Layers[l].B)
	}
}

// listed returns x as a SparseVec that lists its non-zero elements and, where
// explicit says so, its zeros too (with their sign).
func listed(x []float64, explicit func(i int) bool) SparseVec {
	var v SparseVec
	for i, e := range x {
		if e != 0 || explicit(i) {
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, e)
		}
	}
	return v
}

// requireSelectedOutputs asks m for the outputs of x in outs alone and holds
// each to the full reference row want.
func requireSelectedOutputs(t *testing.T, what string, m *MLP, x SparseVec, outs []int, want []float64) {
	t.Helper()
	got := m.ForwardSparse(x, outs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for _, j := range outs {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s outs %v: output %d is %v (%#x), want %v (%#x)", what, outs, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// subsetOf returns the elements of 0..n-1 whose bit is set in mask.
func subsetOf(mask uint64, n int) []int {
	var outs []int
	for j := 0; j < n; j++ {
		if mask>>j&1 != 0 {
			outs = append(outs, j)
		}
	}
	return outs
}

// TestSparseTrainingMatchesDense runs 500 TrainAction steps on the production
// network through its dense entry points, on a second one
// through the sparse entry points (vectors that list one zero in eight
// explicitly), and on a clone trained by the dense reference, over every input
// kind, and requires every returned loss, every output — asked for in full, one
// by one and in random subsets — and, at the end, every weight and bias to be
// bit-equal.
func TestSparseTrainingMatchesDense(t *testing.T) {
	for _, arch := range sparseArchs {
		rng := rand.New(rand.NewSource(21))
		m := New(arch.sizes, arch.acts, rng)
		sp, ref := m.Clone(), m.Clone()
		nout := m.OutputSize()
		for step := 0; step < 500; step++ {
			kind := inputKinds[rng.Intn(len(inputKinds))]
			x := kind.gen(rng, m.InputSize())
			sv := listed(x, func(int) bool { return rng.Intn(8) == 0 })
			what := kind.name
			want := append([]float64(nil), denseForward(ref, x)...)
			requireSameBits(t, what+" outputs", m.Forward(x), want)
			requireSameBits(t, what+" outputs, sparse entry", sp.ForwardSparse(sv, nil), want)
			requireSelectedOutputs(t, what, sp, sv, []int{step % nout}, want)
			requireSelectedOutputs(t, what, sp, sv, subsetOf(rng.Uint64(), nout), want)
			a, target := rng.Intn(nout), rng.Float64()
			got := m.TrainAction(x, a, target, 0.05)
			gotSparse := sp.TrainActionSparse(sv, a, target, 0.05)
			want[0] = denseTrainAction(ref, x, a, target, 0.05)
			if math.Float64bits(got) != math.Float64bits(want[0]) || math.Float64bits(gotSparse) != math.Float64bits(want[0]) {
				t.Fatalf("%v step %d (%s): loss %v, through the sparse entry %v, dense reference %v",
					arch.sizes, step, what, got, gotSparse, want[0])
			}
		}
		requireSameWeights(t, "after 500 steps", m, ref)
		requireSameWeights(t, "after 500 steps through the sparse entry", sp, ref)
	}
}

// blockedOuts are layer-0 widths around the store's groups of four neurons and
// the kernels' passes of at most twelve groups: below one group, whole groups,
// every remainder, one pass, and two and three passes.
var blockedOuts = []int{1, 3, 4, 5, 7, 12, 41, 42, 43, 48, 49, 97}

// blockedLayer is a layer 0 of the given shape whose weights are random, with
// a -0 in one place in eight, and the input lists it is tried on: empty, full
// (negative values and both zeros among them), and a sparse one.
func blockedLayer(rng *rand.Rand, in, out int) (*Layer, []SparseVec) {
	l := &Layer{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
	for i := range l.W {
		if l.W[i] = rng.NormFloat64(); rng.Intn(8) == 0 {
			l.W[i] = math.Copysign(0, -1)
		}
	}
	for j := range l.B {
		l.B[j] = rng.NormFloat64()
	}
	full := make([]float64, in)
	for i := range full {
		full[i] = rng.NormFloat64()
	}
	full[0], full[in-1] = 0, math.Copysign(0, -1)
	sparse := sparseStateVec(rng, in, 4, 2)
	return l, []SparseVec{{}, listed(full, func(int) bool { return true }), listed(sparse, func(i int) bool { return i%5 == 0 })}
}

// layerStores returns two stores of l, filled from it: one on the kernels
// where the host has them, and one on the Go loops.
func layerStores(l *Layer) []*inputMajor {
	f := newInputMajor(l)
	var g *inputMajor
	withoutKernels(func() { g = newInputMajor(l) })
	f.fill(l)
	g.fill(l)
	return []*inputMajor{f, g}
}

// TestForwardSparseBlockedMatchesOneRow holds layer 0's exact sum on the
// store, on the kernels in passes of at most twelve groups of four neurons and
// on the Go loops, to the one-row loop over Layer.W, neuron by neuron: the bias,
// then each listed entry's product in list order. The padding sums are +0.
func TestForwardSparseBlockedMatchesOneRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, out := range blockedOuts {
		l, xs := blockedLayer(rng, 28, out)
		for _, x := range xs {
			want := make([]float64, (out+3)&^3)
			for j := 0; j < out; j++ {
				want[j] = l.B[j]
				for e, i := range x.Idx {
					want[j] += float64(l.W[j*l.In+int(i)] * x.Val[e])
				}
			}
			for _, f := range layerStores(l) {
				got := make([]float64, f.width)
				f.exact(got, f.b, x.Idx, x.Val)
				requireSameBits(t, fmt.Sprintf("out %d, on the kernels %t", out, f.kernels), got, want)
			}
		}
	}
}

// TestBackpropBlockedMatchesOneRow holds the store's SGD step, on the kernels
// and on the Go loops, to the one-row loop over Layer.W on deltas with exact
// zeros in every position: a row whose delta is zero must keep every bit, a
// -0 weight included, which a step of lr*0 times a negative input would turn
// into +0, and the padding stays +0. Then the same through TrainActionSparse,
// where a ReLU hidden layer makes the zeros.
func TestBackpropBlockedMatchesOneRow(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, out := range blockedOuts {
		l, xs := blockedLayer(rng, 28, out)
		for trial := 0; trial < 12; trial++ {
			delta := make([]float64, out, (out+3)&^3)
			for j := range delta {
				// Trial 0 has no zero, trial 1 only zeros, the others one in
				// four at random.
				if delta[j] = rng.NormFloat64(); trial == 1 || (trial > 1 && rng.Intn(4) == 0) {
					delta[j] = 0
				}
			}
			for _, x := range xs {
				ref := &Layer{In: l.In, Out: l.Out, W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...)}
				for j, d := range delta {
					if d == 0 {
						continue
					}
					row, step := ref.W[j*l.In:(j+1)*l.In], 0.05*d
					for e, i := range x.Idx {
						row[i] -= float64(step * x.Val[e])
					}
					ref.B[j] -= step
				}
				for _, f := range layerStores(l) {
					what := fmt.Sprintf("out %d trial %d, on the kernels %t", out, trial, f.kernels)
					f.update(delta, x.Idx, x.Val, 0.05)
					got := &Layer{In: l.In, Out: l.Out, W: make([]float64, len(l.W)), B: make([]float64, out)}
					f.writeBack(got)
					requireSameBits(t, what+": W", got.W, ref.W)
					requireSameBits(t, what+": B", got.B, ref.B)
					for i := 0; i < f.in; i++ {
						requireSameBits(t, what+": weight padding", f.w[i*f.width+f.out:][:f.width-f.out], make([]float64, f.width-f.out))
					}
					requireSameBits(t, what+": bias padding", f.b[f.out:], make([]float64, f.width-f.out))
				}
			}
		}

		m := New([]int{28, out, 3}, []Activation{ReLU, Identity}, rng)
		ref := m.Clone()
		for step := 0; step < 40; step++ {
			x := sparseStateVec(rng, 28, 4, 3)
			for i := 1; i < len(x); i += 2 {
				x[i] = -x[i]
			}
			sv := listed(x, func(i int) bool { return i%7 == 0 })
			target := rng.Float64()
			got, want := m.TrainActionSparse(sv, step%3, target, 0.05), denseTrainAction(ref, x, step%3, target, 0.05)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hidden %d step %d: error %v, dense reference %v", out, step, got, want)
			}
		}
		requireSameWeights(t, "ReLU hidden layer", m, ref)
	}
}

// denseStepBatch is forwardBatch with the production tile kernel on every
// layer, every 4-wide step of rows read in place, layer 0 from its exchange
// form.
func denseStepBatch(m *MLP, xs [][]float64, fma bool) [][]float64 {
	m.WriteBack()
	rows := xs
	for _, layer := range m.Layers {
		steps := make([]int32, layer.In/4)
		for s := range steps {
			steps[s] = int32(4 * s)
		}
		next := make([]float64, len(xs)*layer.Out)
		layer.forwardBlocked(rows, next, steps, fma)
		layer.Act.applyTo(next)
		rows = make([][]float64, len(xs))
		for b := range rows {
			rows[b] = next[b*layer.Out : (b+1)*layer.Out]
		}
	}
	return rows
}

// fmaRefBatch computes what ForwardBatchFast computes on the FMA kernel with
// every step taken, in plain Go: inside a full 4-sample x 2-neuron tile each
// dot product is four lane partials (lane = i mod 4) of fused multiply-adds
// from +0, reduced as (l0+l2)+(l1+l3), then bias + that sum, then the in%4 tail
// in scalar order; outside a tile it is Forward's scalar order. It reads layer
// 0 from its exchange form, written back first.
func fmaRefBatch(m *MLP, xs [][]float64) [][]float64 {
	m.WriteBack()
	rows := xs
	for _, layer := range m.Layers {
		in, out := layer.In, layer.Out
		next := make([][]float64, len(xs))
		for b, x := range rows {
			next[b] = make([]float64, out)
			for j := range next[b] {
				w := layer.W[j*in : (j+1)*in]
				z, from := layer.B[j], 0
				if b < len(xs)&^3 && j < out&^1 && in >= 4 {
					var lane [4]float64
					for from = 0; from+4 <= in; from += 4 {
						for k := range lane {
							lane[k] = math.FMA(w[from+k], x[from+k], lane[k])
						}
					}
					z += (lane[0] + lane[2]) + (lane[1] + lane[3])
				}
				for i := from; i < in; i++ {
					z += float64(w[i] * x[i])
				}
				next[b][j] = layer.Act.apply(z)
			}
		}
		rows = next
	}
	return rows
}

// mixedBatch returns nb inputs cycling through the input kinds, so that tiles
// mix sparse and dense samples.
func mixedBatch(rng *rand.Rand, nb, n int) [][]float64 {
	xs := make([][]float64, nb)
	for b := range xs {
		xs[b] = inputKinds[(b+rng.Intn(2))%len(inputKinds)].gen(rng, n)
	}
	return xs
}

// TestForwardBatchSparseMatchesDense pins both batch kernels on tiles mixing
// sparse and dense samples, with and without trailing samples: ForwardBatch
// rows equal sequential Forward and the dense-step blocked kernel,
// ForwardBatchFast rows equal the dense-step FMA kernel and its Go spelling,
// and the same batch handed over as SparseVecs (one zero in eight listed
// explicitly) gives the same rows on either kernel.
func TestForwardBatchSparseMatchesDense(t *testing.T) {
	for _, arch := range sparseArchs {
		rng := rand.New(rand.NewSource(33))
		m := New(arch.sizes, arch.acts, rng)
		for _, nb := range []int{1, 3, 4, 5, 8, 31, 32, 33} {
			xs := mixedBatch(rng, nb, m.InputSize())
			svs := make([]SparseVec, nb)
			for b, x := range xs {
				svs[b] = listed(x, func(int) bool { return rng.Intn(8) == 0 })
			}
			exact := m.ForwardBatch(xs)
			for b, x := range xs {
				requireSameBits(t, "ForwardBatch row vs Forward", exact[b], m.Forward(x))
			}
			exactRef := denseStepBatch(m, xs, false)
			for b, row := range exactRef {
				requireSameBits(t, "ForwardBatch row vs dense steps", exact[b], row)
			}
			for b, row := range m.forwardBatch(svs, nil, false) {
				requireSameBits(t, "exact kernel on sparse inputs vs dense steps", row, exactRef[b])
			}
			fastRef := denseStepBatch(m, xs, hasFMAKernel)
			for b, row := range m.ForwardBatchFast(xs) {
				requireSameBits(t, "ForwardBatchFast row vs dense steps", row, fastRef[b])
			}
			fast := m.ForwardBatchFastSparse(svs, nil)
			for b, row := range fastRef {
				requireSameBits(t, "ForwardBatchFastSparse row vs dense steps", fast[b], row)
			}
			if hasFMAKernel {
				for b, row := range fmaRefBatch(m, xs) {
					requireSameBits(t, "ForwardBatchFastSparse row vs Go FMA reference", fast[b], row)
				}
			}
		}
	}
}

// FuzzForwardSparseMatchesDense builds a small network and inputs from the
// fuzzer's bytes and requires the dense entry points (Forward, TrainAction,
// ForwardBatch) and the sparse ones (ForwardSparse for every subset of the
// outputs, TrainActionSparse, the batch on either kernel) to be bit-equal to
// the dense reference. Byte 0 decodes to +0, 1 to -0 and 2 to a +0 that the
// SparseVec lists explicitly, as it does every -0, so zeros are common.
func FuzzForwardSparseMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(5), uint8(3), []byte{0, 0, 0, 0, 9, 200, 1, 0, 0, 0, 0, 0, 77})
	f.Add(int64(2), uint8(3), uint8(0), uint8(2), []byte{1, 1, 1})
	f.Add(int64(3), uint8(37), uint8(8), uint8(7), []byte{})
	f.Add(int64(4), uint8(16), uint8(2), uint8(1), []byte{255, 254, 253, 252, 251, 250, 249, 248, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, seed int64, in, hidden, out uint8, raw []byte) {
		sizes := []int{1 + int(in)%48, 1 + int(hidden)%9, 1 + int(out)%9}
		acts := []Activation{Sigmoid, LeakyReLU}
		if hidden%9 == 0 { // 1-layer net
			sizes, acts = []int{sizes[0], sizes[2]}, []Activation{Identity}
		}
		m := New(sizes, acts, rand.New(rand.NewSource(seed)))
		sp, ref := m.Clone(), m.Clone()
		// Up to five inputs, cut from raw one after another; short ones are
		// zero-padded.
		n := m.InputSize()
		var xs [][]float64
		var svs []SparseVec
		for len(xs) == 0 || (len(raw) > 0 && len(xs) < 5) {
			x := make([]float64, n)
			explicit := make([]bool, n)
			for i := 0; i < n && len(raw) > 0; i, raw = i+1, raw[1:] {
				switch b := raw[0]; b {
				case 0:
				case 1:
					x[i], explicit[i] = math.Copysign(0, -1), true
				case 2:
					explicit[i] = true
				default:
					x[i] = (float64(b) - 128) / 32
				}
			}
			xs = append(xs, x)
			svs = append(svs, listed(x, func(i int) bool { return explicit[i] }))
		}
		exact, fast := sp.forwardBatch(svs, nil, false), denseStepBatch(ref, xs, hasFMAKernel)
		for b, row := range m.ForwardBatch(xs) {
			want := denseForward(ref, xs[b])
			requireSameBits(t, "ForwardBatch row", row, want)
			requireSameBits(t, "exact batch kernel on sparse inputs", exact[b], want)
		}
		for b, row := range sp.ForwardBatchFastSparse(svs, nil) {
			requireSameBits(t, "ForwardBatchFastSparse row", row, fast[b])
		}
		nout := m.OutputSize()
		for b, x := range xs {
			want := append([]float64(nil), denseForward(ref, x)...)
			requireSameBits(t, "outputs", m.Forward(x), want)
			for mask := uint64(0); mask < 1<<nout; mask++ {
				requireSelectedOutputs(t, "sparse entry", sp, svs[b], subsetOf(mask, nout), want)
			}
			a := int(seed&0xff) % nout
			got, gotSparse := m.TrainAction(x, a, 0.5, 0.1), sp.TrainActionSparse(svs[b], a, 0.5, 0.1)
			if want := denseTrainAction(ref, x, a, 0.5, 0.1); math.Float64bits(got) != math.Float64bits(want) ||
				math.Float64bits(gotSparse) != math.Float64bits(want) {
				t.Fatalf("TrainAction error %v, through the sparse entry %v, dense reference %v", got, gotSparse, want)
			}
		}
		requireSameWeights(t, "after training", m, ref)
		requireSameWeights(t, "after training through the sparse entry", sp, ref)
	})
}

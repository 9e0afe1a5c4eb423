package nn

// inputMajor is layer 0 of every network, stored input-major: the weights of
// input i to every neuron are contiguous, so that a listed input advances all
// the neurons' sums through one row (on a host with the AVX2 kernels, a few
// 256-bit loads: spmvExact and spmvFused, spmv_amd64.s) and takes its SGD step
// as one contiguous row (spmvUpdate), where Layer.W, row-major, offers one
// weight per 4 KB. It is the weights: every forward pass reads it and training
// writes it; Layers[0].W and .B are brought up to date from it on demand
// (MLP.WriteBack).
type inputMajor struct {
	in, out int
	// width is out rounded up to whole groups of four neurons, the length of
	// a row of w, of b and of step; the padding is +0 in all three, so a
	// padded neuron's sum is +0 and is never read, and its weights take steps
	// of +-0 and stay +0.
	width int
	// per is the most groups one kernel call takes: the width's groups cut
	// into the fewest passes of at most twelve, as evenly as they go.
	per int
	// kernels says whether the AVX2 kernels run this store: hasFMAKernel when
	// it was built. Without them the Go loops below run it, with the kernels'
	// operations, order and bits.
	kernels bool
	w       []float64 // w[i*width+j] = Layer.W[j*in+i]
	b       []float64

	// step is the update's lr*delta per neuron.
	step []float64

	// The fused kernel's scratch: where it buckets an input list's entries
	// below in&^3 by lane (index mod 4), lane k's from bidx[k*q] and
	// bval[k*q], q = in/4 being the most indices a lane has; and its lanes.
	q     int
	bidx  []int32
	bval  []float64
	lanes [4][48]float64
}

// errSparseIndex is the panic of a kernel or loop that was handed an index
// outside [0, in), or a list so far from ascending that a lane of the fused
// kernel overflows: checkSparse sees the first and the last index only, and
// where a Go loop would run into a bounds check a kernel would read, or write,
// outside its arrays.
const errSparseIndex = "nn: sparse input index outside the layer's inputs, or out of order"

// newInputMajor returns the store of a layer of l's shape, all +0.
func newInputMajor(l *Layer) *inputMajor {
	width := (l.Out + 3) &^ 3
	groups := width / 4
	passes := (groups + 11) / 12
	q := l.In / 4
	return &inputMajor{
		in: l.In, out: l.Out, width: width, per: (groups + passes - 1) / passes, kernels: hasFMAKernel,
		w: make([]float64, l.In*width), b: make([]float64, width), step: make([]float64, width),
		q: q, bidx: make([]int32, 4*q), bval: make([]float64, 4*q),
	}
}

// fill makes f the layer's weights and biases as they are now.
func (f *inputMajor) fill(l *Layer) {
	for i := 0; i < f.in; i++ {
		row := f.w[i*f.width:][:f.out]
		for j := range row {
			row[j] = l.W[j*f.in+i]
		}
	}
	copy(f.b, l.B)
}

// writeBack is fill's inverse: the layer's W and B become f's.
func (f *inputMajor) writeBack(l *Layer) {
	for i := 0; i < f.in; i++ {
		for j, w := range f.w[i*f.width:][:f.out] {
			l.W[j*f.in+i] = w
		}
	}
	copy(l.B, f.b)
}

// row is input i's weights to every neuron, width long. An index outside
// [0, in) panics with errSparseIndex, as the kernels report it.
func (f *inputMajor) row(i int32) []float64 {
	if uint(i) >= uint(f.in) {
		panic(errSparseIndex)
	}
	return f.w[int(i)*f.width:][:f.width]
}

// exact computes every neuron's pre-activation on the listed input, from init
// (the biases, or sums already begun) through the entries in list order: an
// accumulator per neuron takes w*v, the product rounded first, entry by entry.
// z and init are width long.
func (f *inputMajor) exact(z, init []float64, idx []int32, val []float64) {
	val = val[:len(idx)]
	if !f.kernels {
		z = z[:f.width]
		copy(z, init)
		for e, i := range idx {
			for c, w := range f.row(i) {
				z[c] += float64(w * val[e])
			}
		}
		return
	}
	var ip *int32
	var vp *float64
	if len(idx) > 0 {
		ip, vp = &idx[0], &val[0]
	}
	for c := 0; c < f.width; c += 4 * f.per {
		g := min(f.per, (f.width-c)/4)
		if !spmvExact(&z[c], &init[c], &f.w[c], f.width, f.in, g, ip, vp, len(idx)) {
			panic(errSparseIndex)
		}
	}
}

// fused computes every neuron's pre-activation as fmaDot4x2 rounds it: four
// lane chains of fused multiply-adds over the entries below in&^3, reduced and
// added to the bias, then the in%4 tail in exact order; and an odd last neuron,
// which the tile kernel leaves to the scalar loop, in exact order throughout.
// The kernel buckets the entries by lane itself, once per pass. Only a store
// with the kernels runs it.
func (f *inputMajor) fused(z []float64, idx []int32, val []float64) {
	n := len(idx)
	for tail := int32(f.in &^ 3); n > 0 && idx[n-1] >= tail; n-- {
	}
	if n == 0 { // no lane has an entry: the tile kernel is not run
		f.exact(z, f.b, idx, val)
		return
	}
	var cnt [4]int
	for c := 0; c < f.width; c += 4 * f.per {
		g := min(f.per, (f.width-c)/4)
		if !spmvFused(&z[c], &f.b[c], &f.w[c], f.width, f.in, g, &idx[0], &val[0], n, f.q, &f.bidx[0], &f.bval[0], &cnt, &f.lanes) {
			panic(errSparseIndex)
		}
	}
	if n < len(idx) {
		f.exact(z, z, idx[n:], val[n:])
	}
	if f.out&1 != 0 { // the last group of four once more, for its one odd neuron
		last, c := &f.lanes[0], f.width-4
		if !spmvExact(&last[0], &f.b[c], &f.w[c], f.width, f.in, 1, &idx[0], &val[0], len(idx)) {
			panic(errSparseIndex)
		}
		z[f.out-1] = last[f.out-1-c]
	}
}

// forwardBatch writes the pre-activations of xs into the row-major plane next
// (out apart, each row written width wide, so next is width-out longer than
// the rows need): full tiles of four through the fused kernel when fma, which
// needs the kernels, as forwardTile runs them on fmaDot4x2, everything else in
// exact order.
func (f *inputMajor) forwardBatch(xs []SparseVec, next []float64, fma bool) {
	full := 0
	if fma {
		full = len(xs) &^ 3
	}
	for b, x := range xs {
		z, val := next[b*f.out:][:f.width], x.Val[:len(x.Idx)]
		if b < full {
			f.fused(z, x.Idx, val)
		} else {
			f.exact(z, f.b, x.Idx, val)
		}
	}
}

// steps sets step[c] = lr*delta[c] for every column, steps the biases whose
// delta is not zero (b[c] -= step[c]; a NaN is not zero) and returns how many
// deltas are zero: spmvSteps, or its Go spelling. delta is out long with room
// for width, +0 past out.
func (f *inputMajor) steps(delta []float64, lr float64) int {
	delta = delta[:f.width]
	if f.kernels {
		return spmvSteps(&f.step[0], &f.b[0], &delta[0], lr, f.width/4)
	}
	zeros := 0
	for c, d := range delta {
		f.step[c] = float64(lr * d)
		if d == 0 {
			zeros++
		} else {
			f.b[c] -= f.step[c]
		}
	}
	return zeros
}

// update is the layer's SGD step: w[i][j] -= (lr*delta[j])*x[i] for the listed
// inputs, the product rounded before it is subtracted, one contiguous row an
// entry, and b[j] -= lr*delta[j]. A neuron whose delta is zero keeps its
// weights as they are, -0 included, which a step of lr*0 would not (-0 - -0 is
// +0): a call with such a neuron, rare behind a sigmoid, takes its rows in the
// Go loop, which skips that neuron, as does every call on a store without the
// kernels; every other call goes to spmvUpdate, one listed input's row at a
// time, where a padding column's step is +-0 and its weight stays +0. Either
// way an index outside [0, in) panics before anything is stored for it.
func (f *inputMajor) update(delta []float64, idx []int32, val []float64, lr float64) {
	val = val[:len(idx)]
	if zeros := f.steps(delta, lr); f.kernels && zeros == f.width-f.out {
		for c := 0; c < f.width && len(idx) > 0; c += 4 * f.per {
			g := min(f.per, (f.width-c)/4)
			if !spmvUpdate(&f.w[c], &f.step[c], f.width, f.in, g, &idx[0], &val[0], len(idx)) {
				panic(errSparseIndex)
			}
		}
		return
	}
	delta = delta[:f.out]
	step := f.step[:len(delta)]
	for e, i := range idx {
		row, v := f.row(i)[:len(delta)], val[e]
		for j, d := range delta {
			if d != 0 {
				row[j] -= float64(step[j] * v)
			}
		}
	}
}

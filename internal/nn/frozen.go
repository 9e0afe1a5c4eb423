package nn

// frozenLayer is layer 0 of a network nobody is training, stored input-major:
// the weights of input i to every neuron are contiguous, so that a listed
// input advances all the neurons' sums with a few 256-bit loads (spmvExact and
// spmvFused, spmv_amd64.s) where Layer.W, row-major, offers one weight per
// 4 KB. It is a copy: Layer.W stays the weights, and whoever changes them
// through this package rebuilds the copy (CopyFrom) or drops it (training).
type frozenLayer struct {
	in, out int
	// width is out rounded up to whole groups of four neurons, the length of
	// a row of w and of b; the padding is +0 in both, so a padded neuron's sum
	// is +0 and is never read.
	width int
	// per is the most groups one kernel call takes: the width's groups cut
	// into the fewest passes of at most twelve, as evenly as they go.
	per int
	w   []float64 // w[i*width+j] = Layer.W[j*in+i]
	b   []float64

	// The fused kernel's input: an input list's entries below in&^3 bucketed
	// by lane (index mod 4), lane k's from bidx[k*q] and bval[k*q], where
	// q = in/4 is the most indices a lane has; and its scratch.
	q     int
	bidx  []int32
	bval  []float64
	lanes [4][48]float64
}

// errSparseIndex is the panic of a kernel that was handed an index outside
// [0, in): checkSparse sees the first and the last index only, and where a Go
// loop would run into a bounds check a kernel would read outside w.
const errSparseIndex = "nn: sparse input index outside the layer's inputs"

func newFrozenLayer(l *Layer) *frozenLayer {
	width := (l.Out + 3) &^ 3
	groups := width / 4
	passes := (groups + 11) / 12
	q := l.In / 4
	return &frozenLayer{
		in: l.In, out: l.Out, width: width, per: (groups + passes - 1) / passes,
		w: make([]float64, l.In*width), b: make([]float64, width),
		q: q, bidx: make([]int32, 4*q), bval: make([]float64, 4*q),
	}
}

// fill makes f the layer's weights and biases as they are now.
func (f *frozenLayer) fill(l *Layer) {
	for i := 0; i < f.in; i++ {
		row := f.w[i*f.width:][:f.out]
		for j := range row {
			row[j] = l.W[j*f.in+i]
		}
	}
	copy(f.b, l.B)
}

func (f *frozenLayer) clone() *frozenLayer {
	c := *f
	c.w, c.b = append([]float64(nil), f.w...), append([]float64(nil), f.b...)
	c.bidx, c.bval = make([]int32, len(f.bidx)), make([]float64, len(f.bval))
	return &c
}

// exact computes every neuron's pre-activation on the listed input, from init
// (the biases, or sums already begun) through the entries in list order: the
// operations, order and bits of Layer.sumSparse. z and init are width long.
func (f *frozenLayer) exact(z, init []float64, idx []int32, val []float64) {
	var ip *int32
	var vp *float64
	if val = val[:len(idx)]; len(idx) > 0 {
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
func (f *frozenLayer) fused(z []float64, idx []int32, val []float64) {
	n := len(idx)
	for tail := int32(f.in &^ 3); n > 0 && idx[n-1] >= tail; n-- {
	}
	if n == 0 { // no lane has an entry: the tile kernel is not run
		f.exact(z, f.b, idx, val)
		return
	}
	var cnt [4]int
	for e, i := range idx[:n] {
		k := int(i) & 3
		p := k*f.q + cnt[k]
		f.bidx[p], f.bval[p] = i, val[e]
		cnt[k]++
	}
	if max(cnt[0], cnt[1], cnt[2], cnt[3]) > f.q {
		panic("nn: sparse input indices are not strictly ascending")
	}
	for c := 0; c < f.width; c += 4 * f.per {
		g := min(f.per, (f.width-c)/4)
		if !spmvFused(&z[c], &f.b[c], &f.w[c], f.width, f.in, g, &f.bidx[0], &f.bval[0], f.q, &cnt, &f.lanes) {
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
// the rows need): full tiles of four through the fused kernel when fma, as
// forwardTile runs them on fmaDot4x2, everything else in exact order.
func (f *frozenLayer) forwardBatch(xs []SparseVec, next []float64, fma bool) {
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

package nn

import (
	"fmt"
	"math"
)

// Inference is the common interface of the float64 MLP and the INT8 engine:
// anything that maps a state vector to Q-values. The returned slice may alias
// internal scratch, valid until the next call on the same receiver.
type Inference interface {
	Forward(x []float64) []float64
}

var (
	_ Inference = (*MLP)(nil)
	_ Inference = (*Quantized)(nil)
)

// QuantLayer is one dense layer of the INT8 engine: int8 weights at a
// per-layer symmetric scale, int32 biases at the accumulator scale, and the
// float activation applied after dequantization.
type QuantLayer struct {
	In, Out int
	// W holds the int8 weights row-major like Layer.W; the float weight is
	// approximately Sw * W[j*In+i].
	W []int8
	// B holds the biases quantized at the accumulator scale Sw*Sx, so they
	// add directly onto the int32 dot-product accumulator.
	B   []int32
	Act Activation
	// Sw is the weight scale: floatW ≈ Sw * int8W (symmetric, max|W|/127).
	Sw float64
	// Sx is the input-plane activation scale: floatX ≈ Sx * int8X.
	Sx float64
}

// Quantized is an INT8 symmetric-quantized inference engine for a trained
// MLP, mirroring the arithmetic of the paper's Section 4.8 NN hardware: an
// INT8 MAC array with int32 accumulators (internal/synth.NNEngine costs
// exactly this circuit for Table 3). Per layer:
//
//	acc_j  = Bq[j] + Σ_i int32(Wq[j,i]) * int32(Xq[i])   (int32, exact)
//	z_j    = float64(acc_j) * Sw * Sx                     (dequantize)
//	y_j    = Act(z_j)                                     (activation unit)
//	Xq'_j  = clamp(round(y_j / Sx'), ±127)                (requantize)
//
// Activation scales are calibrated per plane (input and every layer output)
// from representative states: symmetric max-abs / 127, the scheme an offline
// compiler for the paper's engine would use. The engine is deterministic —
// same weights, calibration and input always produce the same Q-values — so
// quantized-vs-float disagreement is a property of the network, not of the
// run. It is not safe for concurrent use (shared scratch), like MLP.
type Quantized struct {
	Layers []*QuantLayer

	// OutScale is the calibrated activation scale of the final output plane
	// (exported for introspection; the engine returns dequantized float
	// Q-values, so OutScale only documents the plane's calibrated range).
	OutScale float64

	// scratch: ping-pong int8 planes, the float output row, and the batched
	// equivalents (sized lazily like MLP.bacts). nz and nzq are the indices
	// and int8 values of the last Forward's inputs that quantized to non-zero:
	// layer 0 walks only these, which int32 accumulation makes exact.
	xq       [2][]int8
	outF     []float64
	nz, nzq  []int32
	maxWidth int
	bq       [2][]int8
	qrows    [][]int8
	bout     []float64
	brows    [][]float64
	blk      blockScratch
}

// quantInt8 rounds v/scale to the nearest integer and clamps it to the
// symmetric int8 range ±127 (the -128 slot is unused, as in most symmetric
// MAC-array quantizers, so negation never overflows).
func quantInt8(v, scale float64) int8 {
	q := math.Round(v / scale)
	if q > 127 {
		return 127
	}
	if q < -127 {
		return -127
	}
	return int8(q)
}

// maxAbs returns max|xs| over the slice.
func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Quantize builds the INT8 engine for m, calibrating activation scales from
// the given representative inputs (typically states recorded from the target
// workload). Calibration runs m.Forward over every input and takes each
// plane's symmetric max-abs range; it must be non-empty, since an engine with
// uncalibrated activation ranges would be silently wrong.
func Quantize(m *MLP, calib [][]float64) *Quantized {
	if len(calib) == 0 {
		panic("nn: Quantize needs at least one calibration input")
	}
	m.WriteBack()
	// Plane ranges: planeMax[0] is the input plane, planeMax[l+1] layer l's
	// output plane, which Forward leaves in m.acts[l+1].
	planeMax := make([]float64, len(m.Layers)+1)
	for _, x := range calib {
		m.Forward(x)
		planeMax[0] = max(planeMax[0], maxAbs(x))
		for p := 1; p < len(planeMax); p++ {
			planeMax[p] = max(planeMax[p], maxAbs(m.acts[p]))
		}
	}
	scale := make([]float64, len(planeMax))
	for p, mx := range planeMax {
		if mx == 0 {
			// An all-zero plane quantizes to zero regardless of scale; 1
			// keeps the bias quantization below well-conditioned.
			scale[p] = 1
		} else {
			scale[p] = mx / 127
		}
	}

	q := &Quantized{OutScale: scale[len(scale)-1], maxWidth: m.Layers[0].In}
	for l, layer := range m.Layers {
		sw := maxAbs(layer.W) / 127
		if sw == 0 {
			sw = 1
		}
		sx := scale[l]
		ql := &QuantLayer{
			In: layer.In, Out: layer.Out, Act: layer.Act,
			W:  make([]int8, len(layer.W)),
			B:  make([]int32, len(layer.B)),
			Sw: sw, Sx: sx,
		}
		for i, w := range layer.W {
			ql.W[i] = quantInt8(w, sw)
		}
		accScale := sw * sx
		for j, b := range layer.B {
			v := math.Round(b / accScale)
			if v > math.MaxInt32 {
				v = math.MaxInt32
			}
			if v < math.MinInt32 {
				v = math.MinInt32
			}
			ql.B[j] = int32(v)
		}
		q.Layers = append(q.Layers, ql)
		if layer.Out > q.maxWidth {
			q.maxWidth = layer.Out
		}
	}
	q.xq[0] = make([]int8, q.maxWidth)
	q.xq[1] = make([]int8, q.maxWidth)
	q.outF = make([]float64, m.OutputSize())
	q.nz = make([]int32, m.InputSize())
	q.nzq = make([]int32, m.InputSize())
	q.blk = newBlockScratch(q.maxWidth)
	return q
}

// InputSize returns the width of the input plane.
func (q *Quantized) InputSize() int { return q.Layers[0].In }

// OutputSize returns the width of the output plane.
func (q *Quantized) OutputSize() int { return q.Layers[len(q.Layers)-1].Out }

// MACs returns the number of int8 multiply-accumulates per inference — the
// quantity internal/synth.NNEngine streams through its MAC array.
func (q *Quantized) MACs() int {
	n := 0
	for _, l := range q.Layers {
		n += l.In * l.Out
	}
	return n
}

// LayerSizes returns the layer widths ([in, hidden..., out]), the shape
// argument internal/synth.NNEngine takes.
func (q *Quantized) LayerSizes() []int {
	sizes := []int{q.Layers[0].In}
	for _, l := range q.Layers {
		sizes = append(sizes, l.Out)
	}
	return sizes
}

// Forward runs one INT8 inference and returns the dequantized float64
// Q-values. The returned slice is internal scratch, valid until the next
// Forward call on this engine.
func (q *Quantized) Forward(x []float64) []float64 {
	in0 := q.Layers[0].In
	if len(x) != in0 {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in0))
	}
	// Quantize the input straight into the index of its non-zero elements: a
	// zero input is zero at any scale and needs no division.
	sx0 := q.Layers[0].Sx
	nz, nzq := q.nz[:in0], q.nzq[:in0]
	n := 0
	for i, v := range x {
		if v == 0 {
			continue
		}
		if c := quantInt8(v, sx0); c != 0 {
			nz[n], nzq[n] = int32(i), int32(c)
			n++
		}
	}
	nz, nzq = nz[:n], nzq[:n]
	src := 0
	last := len(q.Layers) - 1
	for l, layer := range q.Layers {
		deq := layer.Sw * layer.Sx
		var nextQ []int8
		var nextSx float64
		if l < last {
			nextQ = q.xq[1-src][:layer.Out]
			nextSx = q.Layers[l+1].Sx
		}
		for j := 0; j < layer.Out; j++ {
			row := layer.W[j*layer.In : (j+1)*layer.In]
			acc := layer.B[j]
			if l == 0 {
				for k, i := range nz {
					acc += int32(row[i]) * nzq[k]
				}
			} else {
				xr := q.xq[src][:len(row)]
				for i, w := range row {
					acc += int32(w) * int32(xr[i])
				}
			}
			y := layer.Act.apply(float64(acc) * deq)
			if l < last {
				nextQ[j] = quantInt8(y, nextSx)
			} else {
				q.outF[j] = y
			}
		}
		src = 1 - src
	}
	return q.outF
}

// ForwardBatch runs INT8 inference on a batch and returns one Q-row per
// input, register-blocked 4 samples x 2 neurons like MLP.ForwardBatch (int32
// accumulation is exact, so blocking cannot change results: each row is
// bit-identical to a sequential Quantized.Forward call). Rows alias internal
// scratch, valid until the next ForwardBatch call on this engine.
func (q *Quantized) ForwardBatch(xs [][]float64) [][]float64 {
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	if need := nb * q.maxWidth; cap(q.bq[0]) < need {
		q.bq[0] = make([]int8, need)
		q.bq[1] = make([]int8, need)
	}
	outW := q.OutputSize()
	if cap(q.bout) < nb*outW {
		q.bout = make([]float64, nb*outW)
	}
	if cap(q.qrows) < nb {
		q.qrows = make([][]int8, nb)
		q.brows = make([][]float64, nb)
	}
	in0 := q.Layers[0].In
	cur := q.bq[0][:nb*in0]
	sx0 := q.Layers[0].Sx
	for b, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("nn: input size %d, want %d", len(x), in0))
		}
		for i, v := range x {
			var c int8 // a zero input is zero at any scale
			if v != 0 {
				c = quantInt8(v, sx0)
			}
			cur[b*in0+i] = c
		}
	}
	src := 0
	last := len(q.Layers) - 1
	qrows := q.qrows[:nb]
	for l, layer := range q.Layers {
		prev := q.bq[src][:nb*layer.In]
		for b := range qrows {
			qrows[b] = prev[b*layer.In : (b+1)*layer.In]
		}
		var next []int8
		var nextSx float64
		if l < last {
			next = q.bq[1-src][:nb*layer.Out]
			nextSx = q.Layers[l+1].Sx
		}
		layer.forwardBlockedQ(qrows, next, q.bout, &q.blk, nextSx, l == 0, l == last)
		src = 1 - src
	}
	rows := q.brows[:nb]
	for b := range rows {
		rows[b] = q.bout[b*outW : (b+1)*outW : (b+1)*outW]
	}
	return rows
}

// tilePlanQ returns the plan of one tile of quantized layer-0 input rows, each
// in wide: a 4-wide step is in it when any of its elements is non-zero in any
// row. The int8 kernel has no 4-wide microkernel, so only the element list is
// returned.
func (sc *blockScratch) tilePlanQ(tile [][]int8, in int) (idx []int32) {
	nsteps := in / 4
	flags := sc.flags[:(nsteps+63)/64]
	clear(flags)
	for _, x := range tile {
		x = x[:4*nsteps]
		for s := 0; s < nsteps; s++ {
			if q := x[4*s : 4*s+4]; q[0]|q[1]|q[2]|q[3] != 0 {
				flags[s>>6] |= 1 << (s & 63)
			}
		}
	}
	_, idx = sc.flagged(flags, in)
	return idx
}

// forwardBlockedQ is the INT8 analog of Layer.forwardTile: a 4-sample x
// 2-neuron register tile of int32 accumulators over int8 operands — in
// software what the paper's MAC array does in parallel hardware — walking the
// same plans: dense for deeper layers, and for layer 0 (sparse) without the
// steps whose inputs quantized to zero across the tile. For the final layer
// (final=true) it dequantizes into the float row plane bout; otherwise it
// requantizes into the int8 plane next at scale nextSx.
func (l *QuantLayer) forwardBlockedQ(rows [][]int8, next []int8, bout []float64, sc *blockScratch, nextSx float64, sparse, final bool) {
	in, out, act := l.In, l.Out, l.Act
	deq := l.Sw * l.Sx
	emit := func(b, j int, acc int32) {
		y := act.apply(float64(acc) * deq)
		if final {
			bout[b*out+j] = y
		} else {
			next[b*out+j] = quantInt8(y, nextSx)
		}
	}
	idx := sc.allIdx[:in]
	for b := 0; b < len(rows); b += 4 {
		tile := rows[b:min(b+4, len(rows))]
		if sparse {
			idx = sc.tilePlanQ(tile, in)
		}
		if len(tile) < 4 { // trailing samples (nb mod 4): one row at a time
			for r, x := range tile {
				for j := 0; j < out; j++ {
					row := l.W[j*in : (j+1)*in]
					acc := l.B[j]
					for _, i := range idx {
						acc += int32(row[i]) * int32(x[i])
					}
					emit(b+r, j, acc)
				}
			}
			break
		}
		x0, x1, x2, x3 := tile[0], tile[1], tile[2], tile[3]
		j := 0
		for ; j+2 <= out; j += 2 {
			w0 := l.W[(j+0)*in : (j+1)*in]
			w1 := l.W[(j+1)*in : (j+2)*in]
			a00, a01 := l.B[j], l.B[j+1]
			a10, a11 := a00, a01
			a20, a21 := a00, a01
			a30, a31 := a00, a01
			for _, i := range idx {
				w, v := int32(w0[i]), int32(w1[i])
				e0, e1, e2, e3 := int32(x0[i]), int32(x1[i]), int32(x2[i]), int32(x3[i])
				a00 += w * e0
				a01 += v * e0
				a10 += w * e1
				a11 += v * e1
				a20 += w * e2
				a21 += v * e2
				a30 += w * e3
				a31 += v * e3
			}
			emit(b+0, j, a00)
			emit(b+0, j+1, a01)
			emit(b+1, j, a10)
			emit(b+1, j+1, a11)
			emit(b+2, j, a20)
			emit(b+2, j+1, a21)
			emit(b+3, j, a30)
			emit(b+3, j+1, a31)
		}
		if j < out {
			w0 := l.W[j*in : (j+1)*in]
			bj := l.B[j]
			a0, a1, a2, a3 := bj, bj, bj, bj
			for _, i := range idx {
				w := int32(w0[i])
				a0 += w * int32(x0[i])
				a1 += w * int32(x1[i])
				a2 += w * int32(x2[i])
				a3 += w * int32(x3[i])
			}
			emit(b+0, j, a0)
			emit(b+1, j, a1)
			emit(b+2, j, a2)
			emit(b+3, j, a3)
		}
	}
}

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

	// scratch: ping-pong int8 planes and the float output row. nz and nzq
	// are the indices and int8 values of the last Forward's inputs that
	// quantized to non-zero: layer 0 walks only these, which int32
	// accumulation makes exact.
	xq      [2][]int8
	outF    []float64
	nz, nzq []int32
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

	q := &Quantized{OutScale: scale[len(scale)-1]}
	maxWidth := m.Layers[0].In
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
		maxWidth = max(maxWidth, layer.Out)
	}
	q.xq[0] = make([]int8, maxWidth)
	q.xq[1] = make([]int8, maxWidth)
	q.outF = make([]float64, m.OutputSize())
	q.nz = make([]int32, m.InputSize())
	q.nzq = make([]int32, m.InputSize())
	return q
}

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

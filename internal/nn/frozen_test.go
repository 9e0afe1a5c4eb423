package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// frozenShapes are the APU and mesh networks (the mesh one has an odd last
// hidden neuron, which the tile kernel leaves to the scalar loop), a single
// neuron, and layers wider than one kernel pass (49 and 100 neurons: two and
// three passes) behind inputs that do and do not end in an in%4 tail.
var frozenShapes = [][]int{{504, 42, 42}, {60, 15, 15}, {7, 1}, {9, 49, 3}, {12, 100, 5}}

// frozenTwins returns a network of the given sizes with random weights and
// biases whose layer-0 store runs on the kernels (where the host has them),
// and its twin built with the kernels switched off, whose store runs on the Go
// loops. The names date from when only a frozen network had a store.
func frozenTwins(rng *rand.Rand, sizes []int) (fz, ref *MLP) {
	acts := []Activation{Sigmoid, LeakyReLU, Tanh}[:len(sizes)-1]
	withoutKernels(func() {
		ref = New(sizes, acts, rng)
		for _, l := range ref.Layers {
			for j := range l.B {
				l.B[j] = rng.NormFloat64()
			}
		}
		ref.adopt()
	})
	return ref.Clone(), ref
}

// frozenInputs returns lists of every shape layer 0's kernels treat
// differently: none, one entry (first, last, random), every input, all entries
// in one lane, zeros of either sign listed among values, and negative, tiny
// and denormal values.
func frozenInputs(rng *rand.Rand, in int) []SparseVec {
	pick := func(keep func(i int) bool, val func() float64) SparseVec {
		var v SparseVec
		for i := 0; i < in; i++ {
			if keep(i) {
				v.Idx, v.Val = append(v.Idx, int32(i)), append(v.Val, val())
			}
		}
		return v
	}
	unit := func() float64 { return rng.Float64()*2 - 1 }
	lane, one := rng.Intn(4), rng.Intn(in)
	odd := []float64{0, math.Copysign(0, -1), -3.5, 5e-324, -1e-310, 1e-300, 0.75}
	return []SparseVec{
		{},
		pick(func(i int) bool { return i == 0 }, unit),
		pick(func(i int) bool { return i == in-1 }, unit),
		pick(func(i int) bool { return i == one }, unit),
		pick(func(int) bool { return true }, unit),
		pick(func(i int) bool { return i%4 == lane }, unit),
		pick(func(int) bool { return rng.Intn(3) == 0 }, func() float64 { return odd[rng.Intn(2)] + float64(rng.Intn(2))*unit() }),
		pick(func(int) bool { return rng.Intn(5) == 0 }, func() float64 { return odd[rng.Intn(len(odd))] }),
		pick(func(int) bool { return rng.Intn(12) == 0 }, rng.Float64),
	}
}

// requireFrozenMatches runs every inference entry point on fz and ref and
// requires the same bits: each input alone, through the dense and the sparse
// entry, for all outputs and for a selection, and every batch of 0..9 inputs
// starting anywhere in xs through each batched entry, with the kernels
// reported absent (withoutKernels), where no batch takes a fused tile. fz's
// fused tiles are held to the Go FMA reference instead (requireFusedMatchesRef).
func requireFrozenMatches(t *testing.T, rng *rand.Rand, fz, ref *MLP, xs []SparseVec) {
	t.Helper()
	n, nout := ref.InputSize(), ref.OutputSize()
	dense := make([][]float64, len(xs))
	for k, x := range xs {
		dense[k] = make([]float64, n)
		x.ScatterInto(dense[k])
		what := fmt.Sprintf("input %d", k)
		requireSameBits(t, what+": ForwardSparse", fz.ForwardSparse(x, nil), ref.ForwardSparse(x, nil))
		requireSameBits(t, what+": Forward", fz.Forward(dense[k]), ref.Forward(dense[k]))
		outs := subsetOf(rng.Uint64()|1<<rng.Intn(nout), nout)
		requireSelectedOutputs(t, what+": selected", fz, x, outs, ref.ForwardSparse(x, nil))
	}
	for nb := 0; nb <= 9; nb++ {
		from := rng.Intn(len(xs))
		svs, ds := make([]SparseVec, nb), make([][]float64, nb)
		for b := range svs {
			svs[b], ds[b] = xs[(from+b)%len(xs)], dense[(from+b)%len(xs)]
		}
		for name, run := range map[string]func(m *MLP) [][]float64{
			"ForwardBatch":           func(m *MLP) [][]float64 { return m.ForwardBatch(ds) },
			"ForwardBatchFast":       func(m *MLP) [][]float64 { return m.ForwardBatchFast(ds) },
			"ForwardBatchFastSparse": func(m *MLP) [][]float64 { return m.ForwardBatchFastSparse(svs, nil) },
		} {
			var got, want [][]float64
			withoutKernels(func() { got, want = run(fz), run(ref) })
			if len(got) != len(want) {
				t.Fatalf("%s of %d: %d rows, want %d", name, nb, len(got), len(want))
			}
			for b := range want {
				requireSameBits(t, fmt.Sprintf("%s of %d from input %d, row %d", name, nb, from, b), got[b], want[b])
			}
		}
		requireFusedMatchesRef(t, fmt.Sprintf("batch of %d from input %d", nb, from), fz, svs)
	}
}

// requireFusedMatchesRef holds the rows of m.ForwardBatchFastSparse(xs, nil),
// full tiles fused where m runs on the kernels and the host reports them, to
// fmaRefBatch, that arithmetic spelled out in Go. Elsewhere every row is exact,
// which the twin comparisons cover.
func requireFusedMatchesRef(t *testing.T, what string, m *MLP, xs []SparseVec) {
	t.Helper()
	if !hasFMAKernel || !m.store.kernels {
		return
	}
	dense := make([][]float64, len(xs))
	for b, x := range xs {
		dense[b] = make([]float64, m.InputSize())
		x.ScatterInto(dense[b])
	}
	got := m.ForwardBatchFastSparse(xs, nil)
	for b, row := range fmaRefBatch(m, dense) {
		requireSameBits(t, fmt.Sprintf("%s, row %d: fused vs the Go FMA reference", what, b), got[b], row)
	}
}

// checkFrozenMatchesUnfrozen holds a network on the kernels to its twin on the
// Go loops on every shape and input kind. afterBuild runs between building the
// twins and the comparisons.
func checkFrozenMatchesUnfrozen(t *testing.T, afterBuild func()) {
	for _, sizes := range frozenShapes {
		rng := rand.New(rand.NewSource(int64(41 + sizes[0])))
		fz, ref := frozenTwins(rng, sizes)
		if fz.store.kernels != hasFMAKernel || ref.store.kernels {
			t.Fatalf("%v: store on the kernels %t, the twin's %t, host %t", sizes, fz.store.kernels, ref.store.kernels, hasFMAKernel)
		}
		afterBuild()
		for rep := 0; rep < 4; rep++ {
			requireFrozenMatches(t, rng, fz, ref, frozenInputs(rng, sizes[0]))
		}
		if fz.stale || ref.stale {
			t.Fatalf("%v: inference made a store stale", sizes)
		}
	}
}

func TestFrozenMatchesUnfrozen(t *testing.T) {
	checkFrozenMatchesUnfrozen(t, func() {})
}

// TestFrozenRejectsBadIndices: the kernels read the store at the indices they
// are given, so an index the first-and-last check of checkSparse cannot see (a
// list that is not ascending) must stop them, and the Go loops, with
// errSparseIndex.
func TestFrozenRejectsBadIndices(t *testing.T) {
	fz, ref := frozenTwins(rand.New(rand.NewSource(1)), []int{60, 15, 15})
	bad := SparseVec{Idx: []int32{3, 1 << 20, 7}, Val: []float64{1, 1, 1}}
	neg := SparseVec{Idx: []int32{3, -5, 7}, Val: []float64{1, 1, 1}}
	ok := SparseVec{Idx: []int32{3, 5, 7}, Val: []float64{1, 1, 1}}
	for _, m := range []*MLP{fz, ref} {
		for name, run := range map[string]func(){
			"ForwardSparse":                    func() { m.ForwardSparse(bad, nil) },
			"ForwardSparse, negative":          func() { m.ForwardSparse(neg, nil) },
			"ForwardBatchFastSparse":           func() { m.ForwardBatchFastSparse([]SparseVec{ok, ok, bad, ok}, nil) },
			"ForwardBatchFastSparse, negative": func() { m.ForwardBatchFastSparse([]SparseVec{ok, neg, ok, ok}, nil) },
			"ForwardBatchFastSparse, trailing": func() { m.ForwardBatchFastSparse([]SparseVec{ok, ok, ok, ok, bad}, nil) },
		} {
			func() {
				defer func() {
					if r := recover(); r != errSparseIndex {
						t.Errorf("%s on the kernels %t: recovered %v, want %q", name, m.store.kernels, r, errSparseIndex)
					}
				}()
				run()
			}()
		}
	}
}

// TestFusedKeepsInsideItsScratch: spmvFused buckets a list by lane into
// scratch with room for in/4 entries a lane, which no strictly ascending list
// overfills; one that repeats an index does, and must stop the kernel with
// errSparseIndex before anything is written past the scratch: guard words
// behind both scratch arrays keep their bits.
func TestFusedKeepsInsideItsScratch(t *testing.T) {
	if !hasFMAKernel {
		t.Skip("no store without the kernels")
	}
	fz, _ := frozenTwins(rand.New(rand.NewSource(1)), []int{60, 15, 15})
	f := fz.store
	const guard = 8
	bidx, bval := make([]int32, len(f.bidx)+guard), make([]float64, len(f.bval)+guard)
	for g := 0; g < guard; g++ {
		bidx[len(f.bidx)+g], bval[len(f.bval)+g] = -7, -7
	}
	f.bidx, f.bval = bidx[:len(f.bidx)], bval[:len(f.bval)]
	var rep SparseVec // lane 3, one entry more than it has room for
	for k := 0; k <= f.q; k++ {
		rep.Idx, rep.Val = append(rep.Idx, 3), append(rep.Val, 1)
	}
	func() {
		defer func() {
			if r := recover(); r != errSparseIndex {
				t.Errorf("recovered %v, want %q", r, errSparseIndex)
			}
		}()
		fz.ForwardBatchFastSparse([]SparseVec{rep, rep, rep, rep}, nil)
	}()
	for g := 0; g < guard; g++ {
		if bidx[len(f.bidx)+g] != -7 || bval[len(f.bval)+g] != -7 {
			t.Fatalf("guard word %d overwritten: %d, %v", g, bidx[len(f.bidx)+g], bval[len(f.bval)+g])
		}
	}
}

// FuzzFrozenMatchesUnfrozen holds a network on the kernels to its twin built
// with the kernels off on a network, inputs and batch drawn from the seed:
// shape picks one of frozenShapes or, past them, random widths up to 80 -> 110
// -> 9.
func FuzzFrozenMatchesUnfrozen(f *testing.F) {
	for shape := 0; shape <= len(frozenShapes); shape++ {
		f.Add(int64(shape+1), uint8(shape), uint8(4+shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, nb uint8) {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{1 + rng.Intn(80), 1 + rng.Intn(110), 1 + rng.Intn(9)}
		if k := int(shape) % (len(frozenShapes) + 2); k < len(frozenShapes) {
			sizes = frozenShapes[k]
		} else if k == len(frozenShapes) {
			sizes = sizes[:2]
		}
		fz, ref := frozenTwins(rng, sizes)
		xs := frozenInputs(rng, sizes[0])
		for b := 0; b < int(nb)%10; b++ {
			xs = append(xs, xs[rng.Intn(len(xs))])
		}
		requireFrozenMatches(t, rng, fz, ref, xs)
	})
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the selected outputs of the batched pass (the outs argument
// of ForwardBatchFastSparse) to the same call for all outputs: every listed
// output must have the bits the outs == nil call gives that row, on a network
// on the kernels and on its twin on the Go loops, with the FMA kernels and with
// them reported absent (withoutKernels), where every row takes the scalar
// order.

// selectedShapes are the APU and mesh agents' networks, an even and an odd Out
// behind last-layer inputs with In%4 != 0, a last layer whose inputs are fewer
// than one 4-wide step, three layers, and one layer, whose outputs are layer
// 0's and computed in full.
var selectedShapes = []trainedShape{
	{[]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}},
	{[]int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}},
	{[]int{9, 7, 4}, []Activation{ReLU, Identity}},
	{[]int{5, 3, 8}, []Activation{Tanh, Sigmoid}},
	{[]int{13, 10, 6, 5}, []Activation{Sigmoid, Tanh, LeakyReLU}},
	{[]int{11, 9}, []Activation{LeakyReLU}},
}

// selectedLists draws one output list per row: empty (all outputs), a single
// output, a random subset in ascending order, or outputs in any order with
// repeats.
func selectedLists(rng *rand.Rand, nb, nout int) [][]int {
	outs := make([][]int, nb)
	for b := range outs {
		switch rng.Intn(4) {
		case 1:
			outs[b] = []int{rng.Intn(nout)}
		case 2:
			outs[b] = subsetOf(rng.Uint64(), nout)
		case 3:
			for k := rng.Intn(12); k >= 0; k-- {
				outs[b] = append(outs[b], rng.Intn(nout))
			}
		}
	}
	return outs
}

// checkSelectedOutputs runs a batch of nb inputs drawn from rng through twins
// of the given shape, once for all outputs and once for random lists, and
// holds every listed output to the full row, and, with the kernels reported
// absent, the twins' full rows to each other; then an output outside the layer
// in any one list must panic.
func checkSelectedOutputs(t *testing.T, rng *rand.Rand, sizes []int, acts []Activation, nb int) {
	t.Helper()
	st, ref := trainedTwins(rng, sizes, acts, false)
	pool := frozenInputs(rng, sizes[0])
	xs := make([]SparseVec, nb)
	for b := range xs {
		xs[b] = pool[rng.Intn(len(pool))]
	}
	nout := sizes[len(sizes)-1]
	outs := selectedLists(rng, nb, nout)
	for _, kernels := range []bool{true, false} {
		var twin [][]float64 // st's full rows, which ref's must equal without the kernels
		for _, m := range []*MLP{st, ref} {
			what := fmt.Sprintf("%v batch of %d, store on the kernels %t, host kernels %t", sizes, nb, m.store.kernels, kernels)
			run := func() {
				var full [][]float64
				for _, row := range m.ForwardBatchFastSparse(xs, nil) {
					full = append(full, append([]float64(nil), row...))
				}
				if !kernels && twin == nil {
					twin = full
				} else if !kernels {
					for b := range full {
						requireSameBits(t, fmt.Sprintf("%s, row %d, against the twin on the kernels", what, b), full[b], twin[b])
					}
				}
				got := m.ForwardBatchFastSparse(xs, outs)
				if len(got) != nb {
					t.Fatalf("%s: %d rows", what, len(got))
				}
				for b, js := range outs {
					if len(js) == 0 {
						requireSameBits(t, fmt.Sprintf("%s, row %d, empty list", what, b), got[b], full[b])
					}
					for _, j := range js {
						if math.Float64bits(got[b][j]) != math.Float64bits(full[b][j]) {
							t.Fatalf("%s, row %d outs %v: output %d is %v (%#x), all-outputs call %v (%#x)", what, b, js, j,
								got[b][j], math.Float64bits(got[b][j]), full[b][j], math.Float64bits(full[b][j]))
						}
					}
				}
			}
			if kernels {
				run()
			} else {
				withoutKernels(run)
			}
		}
	}
	for _, bad := range []int{-1, nout, math.MaxInt} {
		r := rng.Intn(nb)
		lists := append([][]int(nil), outs...)
		lists[r] = append(append([]int(nil), outs[r]...), bad)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: output %d in row %d's list accepted", sizes, bad, r)
				}
			}()
			st.ForwardBatchFastSparse(xs, lists)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%v: %d output lists for %d inputs accepted", sizes, nb+1, nb)
			}
		}()
		st.ForwardBatchFastSparse(xs, make([][]int, nb+1))
	}()
}

func TestSelectedOutputsMatchFullRows(t *testing.T) {
	for k, shape := range selectedShapes {
		rng := rand.New(rand.NewSource(int64(61 + k)))
		for nb := 1; nb <= 13; nb++ {
			checkSelectedOutputs(t, rng, shape.sizes, shape.acts, nb)
		}
	}
}

// FuzzSelectedOutputsMatchFullRows is TestSelectedOutputsMatchFullRows on a
// network, batch and lists drawn from the seed: shape picks one of
// selectedShapes or, past them, one to three layers of random widths (up to
// 40 inputs, 50 hidden, 45 outputs) behind random activations; nb%13 + 1 is
// the batch size.
func FuzzSelectedOutputsMatchFullRows(f *testing.F) {
	for shape := 0; shape < len(selectedShapes)+3; shape++ {
		f.Add(int64(shape+1), uint8(shape), uint8(3*shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, nb uint8) {
		rng := rand.New(rand.NewSource(seed))
		var s trainedShape
		if k := int(shape) % (len(selectedShapes) + 3); k < len(selectedShapes) {
			s = selectedShapes[k]
		} else {
			all := []Activation{Identity, Sigmoid, ReLU, Tanh, LeakyReLU}
			s.sizes = []int{1 + rng.Intn(40)}
			for l := len(selectedShapes); l <= k; l++ {
				s.sizes = append(s.sizes, 1+rng.Intn(50))
				s.acts = append(s.acts, all[rng.Intn(len(all))])
			}
			s.sizes[len(s.sizes)-1] = 1 + rng.Intn(45)
		}
		checkSelectedOutputs(t, rng, s.sizes, s.acts, 1+int(nb)%13)
	})
}

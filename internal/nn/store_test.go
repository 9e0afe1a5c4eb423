package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// This file holds training on the layer-0 store's kernels (store.go,
// spmvSteps and spmvUpdate, and axpy and sigmoidGrad past layer 0) to its Go
// loops: a network built with the kernels and its twin built with them
// switched off (withoutKernels) take the same calls and must agree bit for
// bit, weights, biases, outputs and returned losses, after every one. Off
// amd64 or without AVX2+FMA both twins run the Go loops and the comparisons
// pass trivially. The "RowMajor" in the names dates from when the twin without
// the kernels kept layer 0 row-major.

// trainedShape is a network's layer sizes and activations.
type trainedShape struct {
	sizes []int
	acts  []Activation
}

// trainedShapes are the networks the differential tests train: the APU and
// mesh agents', then shapes around the update kernel's edges.
var trainedShapes = []trainedShape{
	{[]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}},
	{[]int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}}, // odd last neuron, width padded by one
	{[]int{9, 7, 3}, []Activation{ReLU, Identity}},        // in%4 != 0; a ReLU hidden layer makes zero deltas
	{[]int{13, 1, 2}, []Activation{Sigmoid, Tanh}},        // one neuron, three padding columns
	{[]int{10, 42}, []Activation{LeakyReLU}},              // one layer: TrainAction leaves 41 deltas zero
	{[]int{7, 1}, []Activation{Sigmoid}},
	{[]int{12, 100, 5}, []Activation{Tanh, LeakyReLU}}, // three kernel passes
}

// trainedTwins returns a network with random biases and a -0 in one layer-0
// weight in eight, built with the kernels off, and its clone on the kernels.
// saturate gives layer 0's first neuron a bias of 40: behind a sigmoid its
// output is exactly 1, its delta exactly 0, and every update of the network
// must leave its row alone.
func trainedTwins(rng *rand.Rand, sizes []int, acts []Activation, saturate bool) (st, ref *MLP) {
	withoutKernels(func() {
		ref = New(sizes, acts, rng)
		for _, l := range ref.Layers {
			for j := range l.B {
				l.B[j] = rng.NormFloat64()
			}
		}
		l := ref.Layers[0]
		for i := range l.W {
			if rng.Intn(8) == 0 {
				l.W[i] = math.Copysign(0, -1)
			}
		}
		if saturate {
			l.B[0] = 40
		}
		ref.adopt()
	})
	return ref.Clone(), ref
}

// requireStoreIs reads st's and ref's layer 0 where it lives, without writing
// it back, and holds st's to ref's, the padding of both to +0; deeper layers
// are compared as they are.
func requireStoreIs(t *testing.T, what string, st, ref *MLP) {
	t.Helper()
	f, g := st.store, ref.store
	for i := 0; i < f.in; i++ {
		for j, w := range f.w[i*f.width:][:f.width] {
			want := 0.0
			if j < f.out {
				want = g.w[i*g.width+j]
			} else if pad := g.w[i*g.width+j]; math.Float64bits(pad) != 0 {
				t.Fatalf("%s: the Go loops' padding weight of input %d, column %d, is %v", what, i, j, pad)
			}
			if math.Float64bits(w) != math.Float64bits(want) {
				t.Fatalf("%s: stored weight of input %d to neuron %d (of %d, width %d): %v (%#x), want %v (%#x)",
					what, i, j, f.out, f.width, w, math.Float64bits(w), want, math.Float64bits(want))
			}
		}
	}
	requireSameBits(t, what+": stored biases", f.b[:f.out], g.b[:g.out])
	requireSameBits(t, what+": bias padding", f.b[f.out:], make([]float64, f.width-f.out))
	requireSameBits(t, what+": the Go loops' bias padding", g.b[g.out:], make([]float64, g.width-g.out))
	for k := 1; k < len(ref.Layers); k++ {
		requireSameBits(t, what+": deeper W", st.Layers[k].W, ref.Layers[k].W)
		requireSameBits(t, what+": deeper B", st.Layers[k].B, ref.Layers[k].B)
	}
}

// checkTrainedTwins trains twins of the given shape for steps calls drawn from
// rng — every training entry point, interleaved with batched inference,
// CopyFrom into a second pair that training then continues on, and
// write-backs — and compares them after every call. With zeroErr every other
// training call aims at the output the network gives, so that its error, and
// every delta behind it, is exactly zero.
func checkTrainedTwins(t *testing.T, rng *rand.Rand, sizes []int, acts []Activation, saturate, zeroErr bool, steps int) {
	t.Helper()
	st, ref := trainedTwins(rng, sizes, acts, saturate)
	st2 := st.Clone()
	var ref2 *MLP
	withoutKernels(func() { ref2 = ref.Clone() })
	if st.store.kernels != hasFMAKernel || ref.store.kernels || ref2.store.kernels {
		t.Fatalf("%v: store on the kernels %t, the twins' %t %t, host %t", sizes, st.store.kernels, ref.store.kernels, ref2.store.kernels, hasFMAKernel)
	}
	n, nout := sizes[0], sizes[len(sizes)-1]
	xs := frozenInputs(rng, n)
	x := make([]float64, n)
	sameLoss := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: loss %v (%#x), on the Go loops %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for step := 0; step < steps; step++ {
		sv := xs[rng.Intn(len(xs))]
		sv.ScatterInto(x)
		lr := []float64{0.05, 0.5, 0}[rng.Intn(3)]
		a, target := rng.Intn(nout), rng.NormFloat64()
		if zeroErr && step%2 == 0 {
			target = ref.ForwardSparse(sv, nil)[a]
		}
		what := fmt.Sprintf("%v saturate=%t zeroErr=%t step %d", sizes, saturate, zeroErr, step)
		switch op := rng.Intn(7); op {
		case 0, 1:
			what += ": TrainActionSparse"
			sameLoss(what, st.TrainActionSparse(sv, a, target, lr), ref.TrainActionSparse(sv, a, target, lr))
		case 2:
			what += ": TrainAction"
			sameLoss(what, st.TrainAction(x, a, target, lr), ref.TrainAction(x, a, target, lr))
		case 3, 4:
			what += ": ForwardBatchFastSparse"
			batch := make([]SparseVec, rng.Intn(10))
			for b := range batch {
				batch[b] = xs[rng.Intn(len(xs))]
			}
			var got, want [][]float64
			withoutKernels(func() { got, want = st.ForwardBatchFastSparse(batch, nil), ref.ForwardBatchFastSparse(batch, nil) })
			for b := range want {
				requireSameBits(t, fmt.Sprintf("%s row %d", what, b), got[b], want[b])
			}
			requireFusedMatchesRef(t, what, st, batch)
		case 5:
			what += ": CopyFrom"
			st2.CopyFrom(st)
			ref2.CopyFrom(ref)
			st, st2, ref, ref2 = st2, st, ref2, ref
		case 6:
			what += ": WriteBack"
			requireSameWeights(t, what, st, ref)
		}
		if diverged(ref) {
			return
		}
		requireSameBits(t, what+", then ForwardSparse", st.ForwardSparse(sv, nil), ref.ForwardSparse(sv, nil))
		requireStoreIs(t, what, st, ref)
	}
	requireSameWeights(t, fmt.Sprintf("%v after %d steps", sizes, steps), st, ref)
}

// diverged reports whether training has blown m's parameters up (the fuzzer
// finds learning rates and targets that do): the package's bit-identity holds
// for finite weights and sums, so a comparison ends there.
func diverged(m *MLP) bool {
	for _, l := range m.Layers {
		for _, params := range [][]float64{l.W, l.B} {
			for _, v := range params {
				if !(math.Abs(v) < 1e6) {
					return true
				}
			}
		}
	}
	return false
}

func TestTrainedStoreMatchesRowMajor(t *testing.T) {
	// A three-layer network besides trainedShapes: two hidden layers, the
	// second behind a derivative the kernels leave to Go.
	shapes := append(trainedShapes[:len(trainedShapes):len(trainedShapes)],
		trainedShape{[]int{20, 11, 6, 5}, []Activation{Sigmoid, Tanh, LeakyReLU}})
	for k, shape := range shapes {
		for _, c := range []struct{ saturate, zeroErr bool }{{false, false}, {true, false}, {false, true}} {
			rng := rand.New(rand.NewSource(int64(7 + k)))
			checkTrainedTwins(t, rng, shape.sizes, shape.acts, c.saturate, c.zeroErr, 60)
		}
	}
}

// FuzzTrainedStoreMatchesRowMajor is TestTrainedStoreMatchesRowMajor on a
// network, inputs and calls drawn from the seed: shape picks one of
// trainedShapes or, past them, random widths up to 40 -> 60 -> 9 behind random
// activations; third puts one more layer of random width and activation
// behind that, and zeroErr makes every other training call's error zero.
func FuzzTrainedStoreMatchesRowMajor(f *testing.F) {
	for shape := 0; shape <= len(trainedShapes); shape++ {
		f.Add(int64(shape+1), uint8(shape), uint8(20+shape), shape%2 == 1, shape%3 == 2, shape%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, steps uint8, saturate, third, zeroErr bool) {
		rng := rand.New(rand.NewSource(seed))
		all := []Activation{Identity, Sigmoid, ReLU, Tanh, LeakyReLU}
		sizes := []int{1 + rng.Intn(40), 1 + rng.Intn(60), 1 + rng.Intn(9)}
		acts := []Activation{all[rng.Intn(len(all))], all[rng.Intn(len(all))]}
		if k := int(shape) % (len(trainedShapes) + 2); k < len(trainedShapes) {
			sizes, acts = trainedShapes[k].sizes, trainedShapes[k].acts
		} else if k == len(trainedShapes) {
			sizes, acts = sizes[:2], acts[:1]
		}
		if third {
			sizes = append(sizes[:len(sizes):len(sizes)], 1+rng.Intn(9))
			acts = append(acts[:len(acts):len(acts)], all[rng.Intn(len(all))])
		}
		checkTrainedTwins(t, rng, sizes, acts, saturate, zeroErr, int(steps)%48)
	})
}

// TestUpdateKeepsInsideTheStore: checkSparse looks at the first and the last
// index only, and the update kernel writes the store at the indices it is
// given, so an index in the middle of a list (what a list that is not
// ascending can hide there) must stop the update with errSparseIndex before
// anything is written for it: guard words on either side of the store's
// backing array keep their bits. On the kernel and, with a zero delta in the
// call, on the Go loop; and on the twin whose store runs the Go loops.
func TestUpdateKeepsInsideTheStore(t *testing.T) {
	const guard = 64
	sentinel := math.Float64frombits(0x7ff8_dead_beef_cafe)
	for _, saturate := range []bool{false, true} {
		for _, mid := range []int32{60, -1, 1 << 30} {
			st, ref := trainedTwins(rand.New(rand.NewSource(5)), []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}, saturate)
			for _, m := range []*MLP{st, ref} {
				f := m.store
				backing := make([]float64, guard+len(f.w)+guard)
				for i := range backing {
					backing[i] = sentinel
				}
				f.w = backing[guard : guard+len(f.w) : guard+len(f.w)]
				f.fill(m.Layers[0])
				for i := range f.w { // fill leaves the padding alone
					if math.Float64bits(f.w[i]) == math.Float64bits(sentinel) {
						f.w[i] = 0
					}
				}
				bad := SparseVec{Idx: []int32{3, mid, 59}, Val: []float64{1, 1, 1}}
				what := fmt.Sprintf("saturate=%t middle index %d, on the kernels %t", saturate, mid, f.kernels)
				func() {
					defer func() {
						if r := recover(); r != errSparseIndex {
							t.Errorf("%s: recovered %v, want %q", what, r, errSparseIndex)
						}
					}()
					// The forward pass of a training call would stop at the index
					// first; the update is what is under test.
					delta := make([]float64, f.out, f.width)
					for j := range delta {
						delta[j] = float64(j+1) / 16
					}
					if saturate {
						delta[0] = 0
					}
					f.update(delta, bad.Idx, bad.Val, 0.1)
				}()
				func() {
					defer func() {
						if r := recover(); r != errSparseIndex {
							t.Errorf("%s through TrainActionSparse: recovered %v, want %q", what, r, errSparseIndex)
						}
					}()
					m.TrainActionSparse(bad, 2, 0.5, 0.1)
				}()
				for _, g := range [][]float64{backing[:guard], backing[guard+len(f.w):]} {
					for i, v := range g {
						if math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("%s: guard word %d overwritten with %v", what, i, v)
						}
					}
				}
			}
		}
	}
}

// TestStoreIsTheOnlyLayer0Path: no forward pass and no update reads
// Layers[0].W or .B, so NaNs put there after construction show up nowhere —
// until a write-back after training replaces them.
func TestStoreIsTheOnlyLayer0Path(t *testing.T) {
	for _, shape := range trainedShapes {
		rng := rand.New(rand.NewSource(23))
		m, ref := trainedTwins(rng, shape.sizes, shape.acts, false)
		poison := func(m *MLP) {
			l := m.Layers[0]
			for i := range l.W {
				l.W[i] = math.NaN()
			}
			for j := range l.B {
				l.B[j] = math.NaN()
			}
		}
		poison(m)
		other := m.Clone() // a clone's store comes from its source's, not from W
		poison(other)
		n, nout := m.InputSize(), m.OutputSize()
		xs := frozenInputs(rng, n)
		x := make([]float64, n)
		for step, sv := range xs {
			sv.ScatterInto(x)
			what := fmt.Sprintf("%v input %d", shape.sizes, step)
			requireSameBits(t, what+": Forward", m.Forward(x), ref.Forward(x))
			requireSelectedOutputs(t, what+": ForwardSparse", m, sv, []int{step % nout}, ref.ForwardSparse(sv, nil))
			for name, run := range map[string]func(m *MLP) [][]float64{
				"ForwardBatch":           func(m *MLP) [][]float64 { return m.ForwardBatch([][]float64{x, x, x, x, x}) },
				"ForwardBatchFastSparse": func(m *MLP) [][]float64 { return m.ForwardBatchFastSparse([]SparseVec{sv, sv, sv, sv, sv}, nil) },
			} {
				var got, want [][]float64
				withoutKernels(func() { got, want = run(m), run(ref) })
				for b := range want {
					requireSameBits(t, what+": "+name, got[b], want[b])
				}
			}
			m.TrainActionSparse(sv, step%nout, 0.5, 0.1)
			ref.TrainActionSparse(sv, step%nout, 0.5, 0.1)
			m.TrainAction(x, step%nout, -0.5, 0.1)
			ref.TrainAction(x, step%nout, -0.5, 0.1)
			other.CopyFrom(m)
			requireSameBits(t, what+": after CopyFrom", other.Forward(x), ref.Forward(x))
		}
		requireSameWeights(t, fmt.Sprintf("%v", shape.sizes), m, ref)
		requireSameWeights(t, fmt.Sprintf("%v, CopyFrom", shape.sizes), other, ref)
	}
}

// TestEveryReaderSeesTrainedWeights trains a network and then, with no
// explicit write-back, reads it every way the package offers; each reader must
// see what its twin on the Go loops shows.
func TestEveryReaderSeesTrainedWeights(t *testing.T) {
	sizes, acts := []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}
	// trained returns freshly trained twins, the stored one's Layers[0] behind.
	trained := func() (st, ref *MLP) {
		rng := rand.New(rand.NewSource(29))
		st, ref = trainedTwins(rng, sizes, acts, false)
		for _, sv := range frozenInputs(rng, sizes[0]) {
			st.TrainActionSparse(sv, 3, 0.25, 0.1)
			ref.TrainActionSparse(sv, 3, 0.25, 0.1)
		}
		if !st.stale {
			t.Fatal("after training: Layers[0] is not marked behind")
		}
		return st, ref
	}
	portableLike := func() (p *MLP) {
		withoutKernels(func() { p = New(sizes, acts, rand.New(rand.NewSource(1))) })
		return p
	}
	x := make([]float64, sizes[0])
	frozenInputs(rand.New(rand.NewSource(2)), sizes[0])[4].ScatterInto(x)

	t.Run("Save and Load", func(t *testing.T) {
		st, ref := trained()
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameWeights(t, "loaded", loaded, ref)
		requireSameBits(t, "loaded: Forward", loaded.Forward(x), ref.Forward(x))
	})
	t.Run("Clone", func(t *testing.T) {
		st, ref := trained()
		c := st.Clone()
		if !st.stale {
			t.Fatal("Clone wrote its source's Layers[0] back")
		}
		requireSameBits(t, "clone: Forward", c.Forward(x), ref.Forward(x))
		requireSameWeights(t, "clone", c, ref)
	})
	t.Run("CopyFrom", func(t *testing.T) {
		st, ref := trained()
		stored := New(sizes, acts, rand.New(rand.NewSource(1)))
		portable := portableLike()
		back := New(sizes, acts, rand.New(rand.NewSource(1)))
		stored.CopyFrom(st)
		portable.CopyFrom(st)
		back.CopyFrom(portable)
		if !st.stale || portable.store.kernels {
			t.Fatal("CopyFrom wrote to its source, or put a portable network on the kernels")
		}
		for name, m := range map[string]*MLP{"stored to stored": stored, "stored to portable": portable, "portable to stored": back} {
			requireSameBits(t, name+": Forward", m.Forward(x), ref.Forward(x))
			requireSameWeights(t, name, m, ref)
		}
	})
	t.Run("Quantize", func(t *testing.T) {
		st, ref := trained()
		calib := [][]float64{x}
		got, want := Quantize(st, calib), Quantize(ref, calib)
		for l := range want.Layers {
			if !slices.Equal(got.Layers[l].W, want.Layers[l].W) || got.Layers[l].Sw != want.Layers[l].Sw {
				t.Fatalf("layer %d quantized from stale weights", l)
			}
		}
	})
	t.Run("heatmap means", func(t *testing.T) {
		st, ref := trained()
		requireSameBits(t, "InputWeightAbsMean", st.InputWeightAbsMean(), ref.InputWeightAbsMean())
		st, ref = trained()
		requireSameBits(t, "InputWeightSignedMean", st.InputWeightSignedMean(), ref.InputWeightSignedMean())
	})
}

// TestConcurrentClonesOfTrainedNetwork: the parallel sweeps clone one network
// from many goroutines, so Clone of a network whose Layers[0] is behind must
// not bring it up to date, or write anything else to it (run under -race).
func TestConcurrentClonesOfTrainedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st, ref := trainedTwins(rng, []int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}, false)
	xs := frozenInputs(rng, 60)
	st.TrainActionSparse(xs[4], 1, 0.5, 0.1)
	ref.TrainActionSparse(xs[4], 1, 0.5, 0.1)
	want := append([]float64(nil), ref.ForwardSparse(xs[4], nil)...)
	clones := make([]*MLP, 8)
	var wg sync.WaitGroup
	for g := range clones {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clones[g] = st.Clone()
			clones[g].ForwardSparse(xs[g], nil)
		}(g)
	}
	wg.Wait()
	for g, c := range clones {
		requireSameBits(t, fmt.Sprintf("clone %d", g), c.ForwardSparse(xs[4], nil), want)
		requireSameWeights(t, fmt.Sprintf("clone %d", g), c, ref)
	}
}

// TestCopyFromRejectsOtherActivations: the same shapes behind another
// non-linearity are another function, and a target network that took the
// weights would bootstrap through the wrong one.
func TestCopyFromRejectsOtherActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dst := New([]int{6, 4, 3}, []Activation{Sigmoid, LeakyReLU}, rng)
	before := dst.Clone()
	for _, acts := range [][]Activation{{Tanh, LeakyReLU}, {Sigmoid, ReLU}} {
		src := New([]int{6, 4, 3}, acts, rng)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopyFrom accepted activations %v into %v", acts, []Activation{Sigmoid, LeakyReLU})
				}
			}()
			dst.CopyFrom(src)
		}()
	}
	requireSameWeights(t, "after the refused copies", dst, before)
	x := []float64{0.5, 0, -1, 0, 0.25, 2}
	requireSameBits(t, "after the refused copies: Forward", dst.Forward(x), before.Forward(x))
	dst.CopyFrom(New([]int{6, 4, 3}, []Activation{Sigmoid, LeakyReLU}, rng))
}

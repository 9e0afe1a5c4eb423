package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func newTestNet(t *testing.T, sizes []int, acts []Activation, seed int64) *MLP {
	t.Helper()
	return New(sizes, acts, rand.New(rand.NewSource(seed)))
}

func TestForwardShapes(t *testing.T) {
	m := newTestNet(t, []int{4, 3, 2}, []Activation{Sigmoid, ReLU}, 1)
	out := m.Forward([]float64{0.1, 0.2, 0.3, 0.4})
	if len(out) != 2 {
		t.Fatalf("output size = %d, want 2", len(out))
	}
	if m.InputSize() != 4 || m.OutputSize() != 2 {
		t.Fatalf("InputSize/OutputSize = %d/%d, want 4/2", m.InputSize(), m.OutputSize())
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := newTestNet(t, []int{5, 4, 3}, []Activation{Tanh, Identity}, 2)
	x := []float64{0.5, -0.2, 0.9, 0, 1}
	a := append([]float64(nil), m.Forward(x)...)
	b := m.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forward not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNumParams(t *testing.T) {
	m := newTestNet(t, []int{60, 15, 15}, []Activation{Sigmoid, ReLU}, 1)
	want := 60*15 + 15 + 15*15 + 15
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		z    float64
		want float64
	}{
		{Identity, 1.5, 1.5},
		{ReLU, -2, 0},
		{ReLU, 3, 3},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.apply(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.z, got, c.want)
		}
	}
}

// TestGradientCheck verifies backprop against numerical differentiation for
// every parameter of a small network: TrainAction on output a is one SGD step
// on 0.5*(y[a]-t)^2, checked for each output in turn.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, acts := range [][]Activation{
		{Sigmoid, ReLU},
		{Tanh, Identity},
		{Sigmoid, Sigmoid},
		{Sigmoid, LeakyReLU},
	} {
		m := New([]int{3, 4, 2}, acts, rng)
		x := []float64{0.3, -0.7, 0.9}
		target := []float64{0.2, 0.8}
		for a := range target {
			loss := func(net *MLP) float64 {
				e := net.Forward(x)[a] - target[a]
				return 0.5 * e * e
			}

			// Analytic step: one SGD update with lr. The parameter delta equals
			// -lr * dL/dw, so compare against the numerical gradient.
			const lr = 1e-3
			before := m.Clone()
			m.TrainAction(x, a, target[a], lr)
			m.WriteBack()

			// perturbed is before with one parameter moved by d, written by hand
			// and adopted.
			perturbed := func(param func(net *MLP) *float64, d float64) *MLP {
				net := before.Clone()
				*param(net) += d
				net.adopt()
				return net
			}
			const eps = 1e-6
			for l := range before.Layers {
				for i := range before.Layers[l].W {
					w := func(net *MLP) *float64 { return &net.Layers[l].W[i] }
					numGrad := (loss(perturbed(w, eps)) - loss(perturbed(w, -eps))) / (2 * eps)
					analytic := (before.Layers[l].W[i] - m.Layers[l].W[i]) / lr
					if math.Abs(numGrad-analytic) > 1e-4*(1+math.Abs(numGrad)) {
						t.Fatalf("acts=%v output %d layer %d w[%d]: numeric %g vs analytic %g",
							acts, a, l, i, numGrad, analytic)
					}
				}
				for i := range before.Layers[l].B {
					b := func(net *MLP) *float64 { return &net.Layers[l].B[i] }
					numGrad := (loss(perturbed(b, eps)) - loss(perturbed(b, -eps))) / (2 * eps)
					analytic := (before.Layers[l].B[i] - m.Layers[l].B[i]) / lr
					if math.Abs(numGrad-analytic) > 1e-4*(1+math.Abs(numGrad)) {
						t.Fatalf("acts=%v output %d layer %d b[%d]: numeric %g vs analytic %g",
							acts, a, l, i, numGrad, analytic)
					}
				}
			}
		}
	}
}

// TestLearnXOR checks end-to-end training on the classic non-linearly
// separable problem.
func TestLearnXOR(t *testing.T) {
	m := newTestNet(t, []int{2, 8, 1}, []Activation{Tanh, Sigmoid}, 3)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 8000; epoch++ {
		for i, x := range inputs {
			m.TrainAction(x, 0, targets[i], 0.5)
		}
	}
	for i, x := range inputs {
		y := m.Forward(x)[0]
		if math.Abs(y-targets[i]) > 0.2 {
			t.Fatalf("XOR(%v) = %.3f, want %.0f", x, y, targets[i])
		}
	}
}

// TestLearnArgmaxOldest is the supervised sanity check behind the RL setup:
// given a state of per-slot ages, the network must learn Q-values whose
// argmax is the slot with the largest age.
func TestLearnArgmaxOldest(t *testing.T) {
	const slots = 5
	m := newTestNet(t, []int{slots, 15, slots}, []Activation{Sigmoid, LeakyReLU}, 4)
	rng := rand.New(rand.NewSource(5))
	sample := func() ([]float64, int) {
		x := make([]float64, slots)
		best := 0
		for i := range x {
			x[i] = rng.Float64()
			if x[i] > x[best] {
				best = i
			}
		}
		return x, best
	}
	for step := 0; step < 30000; step++ {
		x, best := sample()
		// Supervised targets mimic converged Q: high for oldest, low others.
		for a := 0; a < slots; a++ {
			target := 0.0
			if a == best {
				target = 1
			}
			m.TrainAction(x, a, target, 0.05)
		}
	}
	correct := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		x, best := sample()
		y := m.Forward(x)
		arg := 0
		for j := range y {
			if y[j] > y[arg] {
				arg = j
			}
		}
		if arg == best {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.9 {
		t.Fatalf("argmax accuracy %.2f, want >= 0.9", acc)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := newTestNet(t, []int{3, 4, 2}, []Activation{Sigmoid, ReLU}, 1)
	b := a.Clone()
	x := []float64{0.1, 0.2, 0.3}
	ya := append([]float64(nil), a.Forward(x)...)
	yb := b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("clone differs at %d", i)
		}
	}
	// Mutate the clone; original must not change.
	b.TrainAction(x, 0, 1, 0.5)
	ya2 := a.Forward(x)
	for i := range ya {
		if ya[i] != ya2[i] {
			t.Fatalf("training the clone mutated the original")
		}
	}
	// CopyFrom restores equality.
	b.CopyFrom(a)
	yb2 := b.Forward(x)
	for i := range ya {
		if ya[i] != yb2[i] {
			t.Fatalf("CopyFrom did not restore weights")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := newTestNet(t, []int{6, 5, 4}, []Activation{Sigmoid, ReLU}, 9)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	x := []float64{1, 0, 0.5, -0.5, 0.25, 0.75}
	ya := append([]float64(nil), a.Forward(x)...)
	yb := b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("loaded net differs at output %d: %v vs %v", i, ya[i], yb[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("Load accepted garbage input")
	}
}

// TestLoadRejectsBadParameters pins Load's checks on a well-formed gob that
// does not describe a usable network: a parameter the input-sparse first layer
// could hide behind a zero input, or a layer shorter than its shape.
func TestLoadRejectsBadParameters(t *testing.T) {
	good := func() mlpWire {
		return mlpWire{
			Sizes: []int{3, 2, 1},
			Acts:  []Activation{Sigmoid, Identity},
			W:     [][]float64{{1, 2, 3, 4, 5, 6}, {7, 8}},
			B:     [][]float64{{0, 0}, {0}},
		}
	}
	cases := []struct {
		name    string
		corrupt func(w *mlpWire)
		want    string // "" = loads
	}{
		{"intact", func(w *mlpWire) {}, ""},
		{"NaN weight", func(w *mlpWire) { w.W[0][4] = math.NaN() }, "nn: load: layer 0 holds a non-finite parameter"},
		{"Inf bias", func(w *mlpWire) { w.B[1][0] = math.Inf(-1) }, "nn: load: layer 1 holds a non-finite parameter"},
		{"truncated layer", func(w *mlpWire) { w.W[0] = w.W[0][:5] }, "nn: load: layer 0 shape mismatch"},
		// Shapes New refuses and every length check passes or nearly passes,
		// and an activation that would load and act as the identity.
		{"empty layers", func(w *mlpWire) {
			*w = mlpWire{Sizes: []int{0, 0}, Acts: []Activation{Identity}, W: [][]float64{{}}, B: [][]float64{{}}}
		}, "nn: load: layer 0 is 0 wide on 0 inputs"},
		{"negative widths", func(w *mlpWire) { w.Sizes = []int{-3, -2, 1} }, "nn: load: layer 0 is -2 wide on -3 inputs"},
		{"unknown activation", func(w *mlpWire) { w.Acts[1] = LeakyReLU + 1 }, "nn: load: layer 1 has unknown activation 5"},
	}
	for _, c := range cases {
		wire := good()
		c.corrupt(&wire)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		_, err := Load(&buf)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Load: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%s: Load error = %v, want prefix %q", c.name, err, c.want)
		}
	}
}

func TestWeightIntrospection(t *testing.T) {
	m := newTestNet(t, []int{2, 2, 1}, []Activation{Identity, Identity}, 1)
	// Set first-layer weights explicitly: input 0 -> +1/-1, input 1 -> 2/2.
	l := m.Layers[0]
	l.W[0], l.W[1] = 1, 2 // neuron 0: w(in0)=1 w(in1)=2
	l.W[2], l.W[3] = -1, 2
	abs := m.InputWeightAbsMean()
	if abs[0] != 1 || abs[1] != 2 {
		t.Fatalf("InputWeightAbsMean = %v, want [1 2]", abs)
	}
	signed := m.InputWeightSignedMean()
	if signed[0] != 0 || signed[1] != 2 {
		t.Fatalf("InputWeightSignedMean = %v, want [0 2]", signed)
	}
	out := m.Layers[1]
	out.W[0], out.W[1] = 0.5, 1.5
	if got := m.OutputWeightMean(); got != 1 {
		t.Fatalf("OutputWeightMean = %v, want 1", got)
	}
}

func TestTrainActionOnlyMovesAction(t *testing.T) {
	m := newTestNet(t, []int{3, 4, 3}, []Activation{Sigmoid, Identity}, 6)
	x := []float64{0.2, 0.4, 0.6}
	before := append([]float64(nil), m.Forward(x)...)
	m.TrainAction(x, 1, before[1]+1, 0.1)
	after := m.Forward(x)
	if !(after[1] > before[1]) {
		t.Fatalf("action output did not move toward target: %v -> %v", before[1], after[1])
	}
	// Non-action outputs may shift via shared hidden weights, but far less.
	moved := math.Abs(after[1] - before[1])
	for j := 0; j < 3; j++ {
		if j == 1 {
			continue
		}
		if math.Abs(after[j]-before[j]) > moved {
			t.Fatalf("non-action output %d moved more than the action output", j)
		}
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct {
		sizes []int
		acts  []Activation
	}{
		{[]int{3}, nil},
		{[]int{3, 2}, []Activation{Sigmoid, ReLU}},
		{[]int{0, 2}, []Activation{Sigmoid}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v, %v) did not panic", c.sizes, c.acts)
				}
			}()
			New(c.sizes, c.acts, rand.New(rand.NewSource(1)))
		}()
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// calibSet returns n random vectors in [-1, 1) of the given width.
func calibSet(n, width int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		v := make([]float64, width)
		for j := range v {
			v[j] = rng.Float64()*2 - 1
		}
		xs[i] = v
	}
	return xs
}

// TestQuantizedTracksFloat: INT8 inference must stay close to the float
// reference on in-calibration-range inputs. With per-layer symmetric scales
// the worst-case step is one input quantum times the weight mass, so a few
// percent of the output range is the expected regime — the test pins a bound
// well inside "same policy most of the time" and far outside "broken".
func TestQuantizedTracksFloat(t *testing.T) {
	for _, arch := range []struct {
		sizes []int
		acts  []Activation
	}{
		{[]int{60, 15, 15}, []Activation{Sigmoid, LeakyReLU}},
		{[]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU}},
		{[]int{7, 9, 3}, []Activation{Tanh, Identity}},
	} {
		m := New(arch.sizes, arch.acts, rand.New(rand.NewSource(17)))
		calib := calibSet(64, m.InputSize(), 23)
		q := Quantize(m, calib)

		// Output range over the calibration set, for a scale-aware bound.
		rangeMax := 0.0
		for _, x := range calib {
			if a := maxAbs(m.Forward(x)); a > rangeMax {
				rangeMax = a
			}
		}
		tol := 0.05 * (rangeMax + 1e-9)

		worst := 0.0
		for _, x := range calibSet(32, m.InputSize(), 29) {
			yq := q.Forward(x)
			yf := m.Forward(x)
			for j := range yf {
				if d := math.Abs(yq[j] - yf[j]); d > worst {
					worst = d
				}
			}
		}
		if worst > tol {
			t.Errorf("%v: max |quant-float| = %g, want <= %g", arch.sizes, worst, tol)
		}
	}
}

// TestQuantizedDeterministic: same weights + calibration + input => bitwise
// identical Q-values, the property the fidelity study's CSV output relies on.
func TestQuantizedDeterministic(t *testing.T) {
	build := func() (*Quantized, []float64) {
		m := New([]int{20, 12, 6}, []Activation{Sigmoid, LeakyReLU},
			rand.New(rand.NewSource(9)))
		return Quantize(m, calibSet(8, 20, 2)), calibSet(1, 20, 77)[0]
	}
	q1, x := build()
	q2, _ := build()
	y1 := q1.Forward(x)
	y2 := q2.Forward(x)
	for j := range y1 {
		if y1[j] != y2[j] {
			t.Fatalf("non-deterministic quantized inference at %d: %v vs %v", j, y1[j], y2[j])
		}
	}
}

// TestQuantizedArgmaxAgreement: on a trained-ish network the quantized argmax
// should agree with the float argmax on a clear majority of random states —
// the soft end of the paper's "would the INT8 engine change decisions" loop.
func TestQuantizedArgmaxAgreement(t *testing.T) {
	const slots = 5
	m := New([]int{slots, 15, slots}, []Activation{Sigmoid, LeakyReLU},
		rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	// Train argmax-oldest as in TestLearnArgmaxOldest, briefly.
	for step := 0; step < 8000; step++ {
		x := make([]float64, slots)
		best := 0
		for i := range x {
			x[i] = rng.Float64()
			if x[i] > x[best] {
				best = i
			}
		}
		for a := 0; a < slots; a++ {
			target := 0.0
			if a == best {
				target = 1
			}
			m.TrainAction(x, a, target, 0.05)
		}
	}
	q := Quantize(m, calibSet(64, slots, 6))
	agree := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		x := calibSet(1, slots, int64(100+i))[0]
		for j := range x {
			x[j] = math.Abs(x[j]) // ages are non-negative
		}
		af, aq := argmax(m.Forward(x)), argmax(q.Forward(x))
		if af == aq {
			agree++
		}
	}
	if frac := float64(agree) / trials; frac < 0.8 {
		t.Fatalf("quantized argmax agreement %.2f, want >= 0.8", frac)
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs[1:] {
		if v > xs[best] {
			best = i + 1
		}
	}
	return best
}

func TestQuantizedZeroAllocs(t *testing.T) {
	m := New([]int{504, 42, 42}, []Activation{Sigmoid, LeakyReLU},
		rand.New(rand.NewSource(11)))
	q := Quantize(m, calibSet(4, 504, 1))
	x := calibSet(1, 504, 2)[0]
	if allocs := testing.AllocsPerRun(100, func() { q.Forward(x) }); allocs != 0 {
		t.Fatalf("Quantized.Forward allocates %v objects per call, want 0", allocs)
	}
}

func TestQuantizeNeedsCalibration(t *testing.T) {
	m := New([]int{3, 2, 2}, []Activation{Sigmoid, Identity},
		rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize(nil calibration) did not panic")
		}
	}()
	Quantize(m, nil)
}

package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero accumulator not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Fatalf("Count = %d", a.Count())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almostEqual(a.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5) // bins [0,10) .. [40,50)
	for _, x := range []float64{1, 5, 15, 25, 45, 99, -3} {
		h.Add(x)
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.bins[0] != 3 { // 1, 5, clamped -3
		t.Fatalf("bin 0 = %d, want 3", h.bins[0])
	}
	if h.bins[1] != 1 || h.bins[2] != 1 || h.bins[3] != 0 || h.bins[4] != 1 {
		t.Fatalf("bins = %v", h.bins)
	}
	if h.overflow != 1 {
		t.Fatalf("overflow = %d", h.overflow)
	}
	if h.acc.Min() != -3 || h.acc.Max() != 99 {
		t.Fatalf("exact min/max = %v/%v", h.acc.Min(), h.acc.Max())
	}
}

func TestHistogramPanics(t *testing.T) {
	nan := math.NaN()
	for _, f := range []func(){
		func() { NewHistogram(0, 5) },
		func() { NewHistogram(1, 0) },
		// NaN fails both range comparisons; the guards must reject it
		// explicitly rather than let it walk the bins.
		func() { NewHistogram(1, 1).Quantile(nan) },
		func() { NewHistogram(1, 1).Quantile(-0.1) },
		func() { NewHistogram(1, 1).Quantile(1.1) },
		func() { Percentile([]float64{1, 2}, nan) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("P50 = %v, want 3", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("P100 = %v, want 5", p)
	}
	if p := Percentile(xs, 20); p != 1 {
		t.Fatalf("P20 = %v, want 1", p)
	}
	// Input must be unmodified.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatal("Percentile mutated its input")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{1, 2, 4}
	if Mean(xs) != 7.0/3 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice helpers not zero")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8}, 1)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", out, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Normalize accepted zero baseline")
		}
	}()
	Normalize([]float64{0, 1}, 0)
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-1: 0, 0: 0, 0.5: 0.5, 1: 1, 2: 1}
	for in, want := range cases {
		if got := Clamp01(in); got != want {
			t.Errorf("Clamp01(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestQuickAccumulatorMeanBounds(t *testing.T) {
	// Property: min <= mean <= max, variance >= 0.
	rng := rand.New(rand.NewSource(5))
	f := func(n8 uint8) bool {
		n := int(n8)%100 + 1
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(rng.NormFloat64() * 100)
		}
		return a.Min() <= a.Mean()+1e-9 && a.Mean() <= a.Max()+1e-9 && a.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 10 bins of width 10 holding 0..99: every decile boundary lands exactly.
	h := NewHistogram(10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %v, want observed min 0", got)
	}
	if got := h.Quantile(1); got != 99 {
		t.Fatalf("Quantile(1) = %v, want observed max 99", got)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("Quantile(0.5) = %v, want 50", got)
	}
	// Within-bin interpolation: quantile 0.25 is halfway through bin 2.
	if got := h.Quantile(0.25); got != 25 {
		t.Fatalf("Quantile(0.25) = %v, want 25", got)
	}
	// Monotonicity across the whole range.
	prev := h.Quantile(0)
	for q := 0.05; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	// Bins cover [0,4); two samples overflow with observed max 10. Quantiles
	// in the overflow bucket interpolate between the last bin edge and the
	// exact max.
	h := NewHistogram(1, 4)
	for _, x := range []float64{0.5, 1.5, 2.5, 3.5, 6, 10} {
		h.Add(x)
	}
	if h.overflow != 2 {
		t.Fatalf("overflow = %d, want 2", h.overflow)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %v, want observed max 10", got)
	}
	// target = 5 of 6 samples: halfway into the overflow mass, so halfway
	// between the last bin edge (4) and the max (10).
	if got, want := h.Quantile(5.0/6), 7.0; !almostEqual(got, want, 1e-9) {
		t.Fatalf("overflow Quantile = %v, want %v", got, want)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(1, 4)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}
	// A single sample answers every quantile with itself (clamped to [min,max]).
	h.Add(2.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 2.5 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 2.5", q, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile accepted q > 1")
		}
	}()
	h.Quantile(1.5)
}

func TestQuickHistogramQuantileBounded(t *testing.T) {
	// Property: quantiles stay within the exact observed [min, max] and are
	// monotone in q, overflow or not.
	rng := rand.New(rand.NewSource(9))
	f := func(n8 uint8) bool {
		n := int(n8)%60 + 1
		h := NewHistogram(2, 8) // covers [0,16); larger samples overflow
		for i := 0; i < n; i++ {
			h.Add(rng.Float64() * 40)
		}
		prev := h.Quantile(0)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < h.acc.Min()-1e-9 || v > h.acc.Max()+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

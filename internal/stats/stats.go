// Package stats provides small statistical accumulators used throughout the
// simulator: streaming mean/variance, histograms, percentiles and
// normalization helpers.
//
// All types are plain values with no hidden goroutines; they are not safe for
// concurrent use unless stated otherwise.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator tracks count, mean, variance (Welford), min and max of a stream
// of float64 samples. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += float64(delta * (x - a.mean))
}

// Count returns the number of samples seen.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.mean
}

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// String implements fmt.Stringer.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Reset restores the accumulator to its zero state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Histogram is a fixed-bin-width histogram over [0, BinWidth*len(bins)), with
// an overflow bucket. Use NewHistogram to create one.
type Histogram struct {
	binWidth float64
	bins     []int64
	overflow int64
	acc      Accumulator
}

// NewHistogram creates a histogram with nbins bins of the given width.
func NewHistogram(binWidth float64, nbins int) *Histogram {
	if binWidth <= 0 {
		panic("stats: histogram bin width must be positive")
	}
	if nbins <= 0 {
		panic("stats: histogram must have at least one bin")
	}
	return &Histogram{binWidth: binWidth, bins: make([]int64, nbins)}
}

// Add records one sample. Negative samples are clamped into the first bin.
func (h *Histogram) Add(x float64) {
	h.acc.Add(x)
	if x < 0 {
		x = 0
	}
	i := int(x / h.binWidth)
	if i >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[i]++
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.acc.Count() }

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples, linearly
// interpolated within the containing bin: the quantile mass is assumed to be
// spread uniformly across each bin's width. Results are clamped to the exact
// observed [Min, Max], so Quantile(0) is the minimum and Quantile(1) the
// maximum. A quantile falling in the overflow bucket interpolates between the
// last bin edge and the exact observed maximum — a coarse but bounded
// estimate, since the overflow bucket records no interior structure. An empty
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	// q < 0 || q > 1 is false for NaN, which would otherwise walk the bins
	// with a NaN target and return the overflow path's clamp of NaN.
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic("stats: quantile must be in [0,1]")
	}
	total := h.acc.Count()
	if total == 0 {
		return 0
	}
	clamp := func(v float64) float64 {
		if v < h.acc.Min() {
			v = h.acc.Min()
		}
		if v > h.acc.Max() {
			v = h.acc.Max()
		}
		return v
	}
	target := float64(q * float64(total))
	var cum int64
	for i, c := range h.bins {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			frac := (target - float64(cum)) / float64(c)
			return clamp((float64(i) + frac) * h.binWidth)
		}
		cum += c
	}
	// The quantile falls in the overflow bucket.
	if h.overflow == 0 {
		return h.acc.Max()
	}
	lo := float64(float64(len(h.bins)) * h.binWidth)
	frac := (target - float64(total-h.overflow)) / float64(h.overflow)
	return clamp(lo + float64(frac*(h.acc.Max()-lo)))
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs using the
// nearest-rank method. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 || p > 100 {
		panic("stats: percentile must be in (0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// JainIndex returns Jain's fairness index (sum x)^2 / (n * sum x^2) of xs:
// 1.0 when all values are equal, approaching 1/n under maximal inequality.
// Values must be non-negative; an empty or all-zero slice returns 1.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			panic("stats: JainIndex requires non-negative values")
		}
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Normalize returns xs scaled so that the element at baseline index is 1.0.
// It panics if the baseline element is zero.
func Normalize(xs []float64, baseline int) []float64 {
	b := xs[baseline]
	if b == 0 {
		panic("stats: cannot normalize to a zero baseline")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / b
	}
	return out
}

// Clamp01 clamps x into [0,1].
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// scalarSigmoid is the oracle of this file: the expression applyTo computed
// one element at a time before it had a kernel.
func scalarSigmoid(zs []float64) []float64 {
	out := make([]float64, len(zs))
	for i, z := range zs {
		out[i] = 1 / (1 + math.Exp(-z))
	}
	return out
}

// sigmoidEdges are the values around every branch of math.Exp and of the
// kernel's range guard.
func sigmoidEdges() []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		709.78, -709.78, 7.09782712893384e+02, 745.2, -745.2, 1e308, -1e308,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308}
	for _, lim := range []float64{700, -700} {
		edges = append(edges, lim, math.Nextafter(lim, 0), math.Nextafter(lim, 2*lim))
	}
	return edges
}

// sigmoidValue draws from the mix the issue names: normal values at four
// scales, the edges, and random bit patterns.
func sigmoidValue(rng *rand.Rand, edges []float64) float64 {
	switch r := rng.Intn(10); {
	case r < 6:
		return rng.NormFloat64() * []float64{1e-300, 1, 4, 300}[rng.Intn(4)]
	case r < 8:
		return edges[rng.Intn(len(edges))]
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// requireSigmoidBits runs applyTo on a copy of zs that starts off elements
// into its backing array, so that the kernel sees every alignment.
func requireSigmoidBits(t *testing.T, zs []float64, off int) {
	t.Helper()
	buf := make([]float64, off+len(zs)+1)
	sentinel := math.Float64frombits(0xDEADBEEFDEADBEEF)
	for i := range buf {
		buf[i] = sentinel
	}
	got := buf[off : off+len(zs)]
	copy(got, zs)
	Sigmoid.applyTo(got)
	requireSameBits(t, fmt.Sprintf("sigmoid of %d values at offset %d", len(zs), off), got, scalarSigmoid(zs))
	for _, i := range []int{off - 1, off + len(zs)} {
		if i >= 0 && math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
			t.Fatalf("len %d offset %d: applyTo wrote outside its slice at %d", len(zs), off, i-off)
		}
	}
}

func TestSigmoidVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := sigmoidEdges()
	for n := 0; n <= 50; n++ {
		for off := 0; off < 8; off++ {
			for rep := 0; rep < 20; rep++ {
				zs := make([]float64, n)
				for i := range zs {
					zs[i] = sigmoidValue(rng, edges)
				}
				requireSigmoidBits(t, zs, off)
			}
		}
	}
	// Every edge in every lane of a group the kernel would otherwise take, and
	// a long all-normal plane like forwardBatch's.
	for _, e := range edges {
		for lane := 0; lane < 4; lane++ {
			zs := []float64{0.25, -1.5, 3, -8, 0.5, 0.75, -0.125, 2, 9, -9, 1, 4}
			zs[4+lane] = e
			requireSigmoidBits(t, zs, 0)
		}
	}
	plane := make([]float64, 1344)
	for i := range plane {
		plane[i] = rng.NormFloat64() * 4
	}
	requireSigmoidBits(t, plane, 0)
}

// TestSigmoidProbeFailureFallsBack forces the start-up probe to fail, with a
// kernel one ulp off on a single lane and with one that stops short, and
// requires applyTo to compute the scalar expression from then on.
func TestSigmoidProbeFailureFallsBack(t *testing.T) {
	offByOne := func(zs *float64, groups int) int {
		*zs = math.Nextafter(1/(1+math.Exp(-*zs)), 2)
		return groups
	}
	short := func(zs *float64, groups int) int { return groups - 1 }
	if sigmoidAgrees(short) {
		t.Fatal("the probe accepted a kernel that does not finish its groups")
	}
	defer func(v bool) { vecSigmoid = v }(vecSigmoid)
	vecSigmoid = hasFMAKernel && sigmoidAgrees(offByOne) // what start-up computes
	if vecSigmoid {
		t.Fatal("the probe accepted a kernel one ulp off the scalar expression")
	}
	rng := rand.New(rand.NewSource(9))
	zs := make([]float64, 42)
	for i := range zs {
		zs[i] = rng.NormFloat64() * 4
	}
	requireSigmoidBits(t, zs, 0)
}

// exprIsFMA reports whether math.Exp is expected on its FMA path: the CPU has
// FMA (hasFMAKernel) and GODEBUG does not take it away.
func exprIsFMA() bool {
	for _, off := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
		if strings.Contains(os.Getenv("GODEBUG"), off) {
			return false
		}
	}
	return hasFMAKernel
}

// TestSigmoidProbeFollowsMathExp pins what the probe is for: with math.Exp on
// its FMA path the kernel is on, and with GODEBUG=cpu.fma=off (a gating CI
// step runs the package that way) math.Exp rounds differently and the kernel
// must be off — every other bit-identity test of the package then runs on
// the scalar loop and must still pass.
func TestSigmoidProbeFollowsMathExp(t *testing.T) {
	if !hasFMAKernel {
		t.Skip("no AVX2+FMA kernel on this CPU")
	}
	if want := exprIsFMA(); vecSigmoid != want {
		t.Fatalf("vecSigmoid = %v with GODEBUG=%q, want %v", vecSigmoid, os.Getenv("GODEBUG"), want)
	}
}

// FuzzSigmoidMatchesScalar reads the fuzzer's bytes as little-endian float64
// bit patterns, at an offset into the backing array that the first byte picks.
// Its seeds are the committed corpus in testdata/fuzz.
func FuzzSigmoidMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		off := 0
		if len(raw) > 0 {
			off, raw = int(raw[0]%8), raw[1:]
		}
		zs := make([]float64, len(raw)/8)
		for i := range zs {
			zs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		requireSigmoidBits(t, zs, off)
	})
}

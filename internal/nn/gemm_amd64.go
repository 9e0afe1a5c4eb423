package nn

// hasFMAKernel reports whether the AVX2+FMA kernels (gemm_amd64.s,
// sigmoid_amd64.s, spmv_amd64.s) are usable on this CPU: AVX2 and FMA present,
// and the OS saves YMM state. A network built while it is true keeps layer 0
// input-major and runs it on them; otherwise ForwardBatchFast falls back to
// the bit-identical blocked scalar kernel and layer 0 to the row-major loops,
// so the flag only ever selects between two correct implementations.
var hasFMAKernel = detectAVX2FMA()

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv() (eax, edx uint32)

// fmaDot4x2 accumulates, into sums, the dot products of two weight rows
// (w0, w1) against four activation rows (x0..x3) over the nsteps 4-wide steps
// whose element offsets steps lists (each a multiple of 4, at most n-4),
// vectorized four float64 lanes at a time with FMA:
//
//	sums[2*b+j] = sum_s sum_{i in s..s+3} w_j[i] * x_b[i]   (j in {0,1}, b in 0..3)
//
// Each sum is the horizontal reduction, in a fixed order, of four lane
// partials that start at +0 and take the steps in list order, lane = i mod 4,
// so its rounding differs from left-to-right summation by a few ULPs (the
// ForwardBatchFast contract) and a step whose products are all +-0 can
// be left off the list without changing a bit. The caller adds the bias and
// the n%4 tail.
//
//go:noescape
func fmaDot4x2(w0, w1, x0, x1, x2, x3 *float64, steps *int32, nsteps int, sums *[8]float64)

// sigmoid4 replaces, in place, the first groups groups of four values at zs
// with 1/(1+exp(-z)), each lane bit-equal to the scalar expression on math.Exp's
// FMA path (sigmoid_amd64.s). It stops in front of the first group that holds
// a NaN or an |z| above 700, where math.Exp leaves its straight-line path, and
// returns the number of groups it has done.
//
//go:noescape
func sigmoid4(zs *float64, groups int) int

// spmvExact is the layer-0 sum on the input-major store (inputMajor) for
// 4*groups neighbouring neurons, groups in 1..12, in the scalar loop's order and
// rounding: for each column c,
//
//	z[c] = b[c] + w[idx[0]*stride+c]*val[0] + w[idx[1]*stride+c]*val[1] + ...
//
// summed left to right, every product rounded before it is added, over the n
// listed entries. w holds rows rows of stride floats; z, b and each row are
// read and written 4*groups wide (z may be b). It reports false, leaving z
// undefined, if an index is outside [0, rows): the kernel reads w at the
// indices it is given, so it checks them.
//
//go:noescape
func spmvExact(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool

// spmvFused is the same sum in fmaDot4x2's order and rounding. The entries
// come bucketed by lane (index mod 4), lane k's cnt[k] entries in list order
// from idx[k*q] and val[k*q]; each lane is a chain of fused multiply-adds from
// +0 (kept in lanes, scratch), and
//
//	z[c] = b[c] + ((lane0[c] + lane2[c]) + (lane1[c] + lane3[c]))
//
// It reports false, like spmvExact, on an index outside [0, rows).
//
//go:noescape
func spmvFused(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, q int, cnt *[4]int, lanes *[4][48]float64) bool

// spmvUpdate is the layer-0 SGD step on the input-major store for 4*groups
// neighbouring neurons, groups in 1..12, in the scalar loop's rounding: for each
// of the n listed entries, in list order, and each column c,
//
//	w[idx[e]*stride+c] -= step[c] * val[e]
//
// the product rounded before it is subtracted. w holds rows rows of stride
// floats; step and each listed row are read, and the row written, 4*groups
// wide. An index outside [0, rows) stops the walk before anything is stored
// for it, the rows of the entries in front of it already stepped, and the
// kernel reports false: it writes w at the indices it is given, so it checks
// them.
//
//go:noescape
func spmvUpdate(w, step *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool

// detectAVX2FMA performs the standard AVX2 feature dance: CPUID leaf 1 for
// FMA/AVX/OSXSAVE, XGETBV for OS-enabled XMM+YMM state, CPUID leaf 7 for AVX2.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		avx     = 1 << 28
		osxsave = 1 << 27
	)
	if ecx1&fma == 0 || ecx1&avx == 0 || ecx1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 { // XMM and YMM state enabled by OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

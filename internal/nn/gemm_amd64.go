package nn

// hasFMAKernel reports whether the AVX2+FMA kernels (gemm_amd64.s,
// sigmoid_amd64.s, spmv_amd64.s) are usable on this CPU: AVX2 and FMA present,
// and the OS saves YMM state. A network built while it is true runs its
// layer-0 store on them; otherwise on Go loops with the same bits, and
// ForwardBatchFast falls back to the bit-identical exact sums, so the flag only
// ever selects between two correct implementations.
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

// fmaDotOuts is fmaDot4x2's arithmetic for one activation row x and the n
// (at most 8) weight rows outs lists, row j at w[j*stride]: for each k,
//
//	sums[k] = sum_{i < 4*nsteps} w[outs[k]*stride+i] * x[i]
//
// as four lane chains of fused multiply-adds from +0 over the steps in
// ascending order, reduced as (l0+l2)+(l1+l3), so every sum has the bits the
// tile kernel gives the same row and neuron on the dense plan. The caller adds
// the bias and the stride%4 tail, and has checked every listed row against the
// layer's neurons: the kernel reads w at the rows it is given.
//
//go:noescape
func fmaDotOuts(x, w *float64, stride, nsteps int, outs *int, n int, sums *[8]float64)

// sigmoid4 replaces, in place, the first groups groups of four values at zs
// with 1/(1+exp(-z)), each lane bit-equal to the scalar expression on math.Exp's
// FMA path (sigmoid_amd64.s). It stops in front of the first group that holds
// a NaN or an |z| above 700, where math.Exp leaves its straight-line path, and
// returns the number of groups it has done.
//
//go:noescape
func sigmoid4(zs *float64, groups int) int

// spmvExact is the layer-0 sum on the input-major store (inputMajor) for
// 4*groups neighbouring neurons, groups in 1..12, in the order and rounding of
// inputMajor.exact's Go loop: for each column c,
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

// spmvFused is the same sum in fmaDot4x2's order and rounding over the n
// listed entries, all of which lie below rows&^3. It first buckets them by lane
// (index mod 4), order kept, lane k's from bidx[k*q] and bval[k*q] with its
// count in cnt[k] (all three scratch, q the most entries a lane can hold); each
// lane is then a chain of fused multiply-adds from +0 (kept in lanes, scratch),
// and
//
//	z[c] = b[c] + ((lane0[c] + lane2[c]) + (lane1[c] + lane3[c]))
//
// It reports false, like spmvExact, on an index outside [0, rows), and on a
// lane that would take more than q entries, which only a list that is not
// strictly ascending can fill.
//
//go:noescape
func spmvFused(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n, q int, bidx *int32, bval *float64, cnt *[4]int, lanes *[4][48]float64) bool

// spmvUpdate is the layer-0 SGD step on the input-major store for 4*groups
// neighbouring neurons, groups in 1..12, in the rounding of inputMajor.update's
// Go loop: for each of the n listed entries, in list order, and each column c,
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

// spmvSteps is the prologue of the layer-0 SGD step on 4*groups neighbouring
// neurons: for each column c, step[c] = lr*delta[c], and b[c] -= step[c]
// unless delta[c] is zero. It returns how many deltas are zero (a NaN is not).
//
//go:noescape
func spmvSteps(step, b, delta *float64, lr float64, groups int) int

// axpy is y[i] += x[i]*a for i in [0, n), n >= 1, the product rounded before
// the sum, which is what the scalar loop computes. With a = -s it is
// y[i] -= s*x[i] bit for bit: x - p is x + (-p) in IEEE arithmetic, and
// (-s)*x is -(s*x).
//
//go:noescape
func axpy(y, x *float64, a float64, n int)

// sigmoidGrad is d[i] *= y[i]*(1-y[i]) for i in [0, n), n >= 1: the sigmoid's
// derivative from its output, each operation rounded as the scalar loop rounds
// it.
//
//go:noescape
func sigmoidGrad(d, y *float64, n int)

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

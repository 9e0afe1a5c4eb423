//go:build !amd64

package nn

// hasFMAKernel is false off amd64: ForwardBatchFast uses the bit-identical
// blocked scalar kernel everywhere the AVX2 microkernel is unavailable.
const hasFMAKernel = false

// fmaDot4x2 is never called when hasFMAKernel is false.
func fmaDot4x2(w0, w1, x0, x1, x2, x3 *float64, steps *int32, nsteps int, sums *[8]float64) {
	panic("nn: fmaDot4x2 called without FMA kernel support")
}

// sigmoid4 is never called when hasFMAKernel is false.
func sigmoid4(zs *float64, groups int) int {
	panic("nn: sigmoid4 called without FMA kernel support")
}

// spmvExact is never called when hasFMAKernel is false: no network has a store.
func spmvExact(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool {
	panic("nn: spmvExact called without AVX2 kernel support")
}

// spmvFused is never called when hasFMAKernel is false.
func spmvFused(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, q int, cnt *[4]int, lanes *[4][48]float64) bool {
	panic("nn: spmvFused called without AVX2 kernel support")
}

// spmvUpdate is never called when hasFMAKernel is false.
func spmvUpdate(w, step *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool {
	panic("nn: spmvUpdate called without AVX2 kernel support")
}

//go:build !amd64

package nn

// hasFMAKernel is false off amd64: every layer-0 store runs on its Go loops,
// and ForwardBatchFast is exactly ForwardBatch. The kernels below are never
// called; they exist so that the package compiles.
const hasFMAKernel = false

func fmaDot4x2(w0, w1, x0, x1, x2, x3 *float64, steps *int32, nsteps int, sums *[8]float64) {
	panic("nn: fmaDot4x2 called without FMA kernel support")
}

func fmaDotOuts(x, w *float64, stride, nsteps int, outs *int, n int, sums *[8]float64) {
	panic("nn: fmaDotOuts called without FMA kernel support")
}

func sigmoid4(zs *float64, groups int) int {
	panic("nn: sigmoid4 called without FMA kernel support")
}

func spmvExact(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool {
	panic("nn: spmvExact called without AVX2 kernel support")
}

func spmvFused(z, b, w *float64, stride, rows, groups int, idx *int32, val *float64, n, q int, bidx *int32, bval *float64, cnt *[4]int, lanes *[4][48]float64) bool {
	panic("nn: spmvFused called without AVX2 kernel support")
}

func spmvUpdate(w, step *float64, stride, rows, groups int, idx *int32, val *float64, n int) bool {
	panic("nn: spmvUpdate called without AVX2 kernel support")
}

func spmvSteps(step, b, delta *float64, lr float64, groups int) int {
	panic("nn: spmvSteps called without AVX2 kernel support")
}

func axpy(y, x *float64, a float64, n int) {
	panic("nn: axpy called without AVX2 kernel support")
}

func sigmoidGrad(d, y *float64, n int) {
	panic("nn: sigmoidGrad called without AVX2 kernel support")
}

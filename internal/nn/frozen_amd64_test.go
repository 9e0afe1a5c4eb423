package nn

import "testing"

// withoutKernels runs build with the kernels reported absent, so that the
// networks it constructs get no store and run layer 0 on the row-major loops,
// then and afterwards: the portable implementation, which is also the oracle.
// (hasFMAKernel is a variable only here, on amd64.)
func withoutKernels(build func()) {
	defer func(v bool) { hasFMAKernel = v }(hasFMAKernel)
	hasFMAKernel = false
	build()
}

// TestFrozenMatchesUnfrozenWithoutFMA is TestFrozenMatchesUnfrozen with the
// FMA tile kernel switched off once the networks are built, as on a CPU
// without it ForwardBatchFast would be ForwardBatch: the stored network then
// answers every batch from the exact kernel, the other from the scalar tile.
func TestFrozenMatchesUnfrozenWithoutFMA(t *testing.T) {
	defer func(v bool) { hasFMAKernel = v }(hasFMAKernel)
	checkFrozenMatchesUnfrozen(t, func() { hasFMAKernel = false })
}

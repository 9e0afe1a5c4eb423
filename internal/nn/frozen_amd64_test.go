package nn

import "testing"

// withoutKernels runs build with the kernels reported absent: the networks it
// constructs get a layer-0 store on the Go loops, then and afterwards, the
// portable implementation the kernels are held to; and a batched call it makes
// takes no fused tile, on any network. (hasFMAKernel is a variable only here,
// on amd64.)
func withoutKernels(build func()) {
	defer func(v bool) { hasFMAKernel = v }(hasFMAKernel)
	hasFMAKernel = false
	build()
}

// TestFrozenMatchesUnfrozenWithoutFMA is TestFrozenMatchesUnfrozen with the
// kernels reported absent once the networks are built, for every call: the
// network on the kernels still runs layer 0 on them, but no batch of either
// twin takes a fused tile, so none is held to the Go FMA reference.
func TestFrozenMatchesUnfrozenWithoutFMA(t *testing.T) {
	defer func(v bool) { hasFMAKernel = v }(hasFMAKernel)
	checkFrozenMatchesUnfrozen(t, func() { hasFMAKernel = false })
}

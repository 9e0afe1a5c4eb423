package nn

import "testing"

// TestFrozenMatchesUnfrozenWithoutFMA is TestFrozenMatchesUnfrozen with the
// FMA tile kernel switched off once the networks are frozen, as on a CPU
// without it ForwardBatchFast would be ForwardBatch: the frozen network then
// answers every batch from the exact kernel, the other from the scalar tile.
// (hasFMAKernel is a variable only here, on amd64.)
func TestFrozenMatchesUnfrozenWithoutFMA(t *testing.T) {
	defer func(v bool) { hasFMAKernel = v }(hasFMAKernel)
	checkFrozenMatchesUnfrozen(t, func() { hasFMAKernel = false })
}

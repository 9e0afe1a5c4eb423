//go:build !amd64

package nn

// withoutKernels runs build: there are no kernels to switch off.
func withoutKernels(build func()) { build() }

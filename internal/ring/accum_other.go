//go:build !amd64

package ring

// supportsAccumAsm reports false where no multiply-accumulate assembly
// exists; the Go loops in accum.go serve every caller instead.
func supportsAccumAsm() bool { return false }

func scaleAccum8AVX2(dst *uint64, w uint64, data *byte, n int) {
	panic("ring: assembly multiply-accumulate is not available on this architecture")
}

func scaleAccum16AVX2(dst *uint64, w uint64, data *byte, n int) {
	panic("ring: assembly multiply-accumulate is not available on this architecture")
}

func scaleAccum32AVX2(dst *uint64, w uint64, data *byte, n int) {
	panic("ring: assembly multiply-accumulate is not available on this architecture")
}

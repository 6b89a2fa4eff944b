package ring

// supportsAccumAsm gates the AVX2 multiply-accumulate the way otp gates
// AES-NI and field gates MULX: the CPU must report AVX and OSXSAVE
// (CPUID.1:ECX bits 28 and 27), the OS must save the YMM state (XCR0 bits
// 1 and 2), and the CPU must report AVX2 (CPUID.7.0:EBX bit 5).
func supportsAccumAsm() bool {
	const osxsave, avx, avx2, ymmState = 1 << 27, 1 << 28, 1 << 5, 6
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// scaleAccum{8,16,32}AVX2 compute dst[j] = (dst[j] + w·lane_j(data)) mod
// 2^we for the first n lanes, n a positive multiple of accumAsmLanes.
// Implemented in accum_amd64.s.
//
//go:noescape
func scaleAccum8AVX2(dst *uint64, w uint64, data *byte, n int)

//go:noescape
func scaleAccum16AVX2(dst *uint64, w uint64, data *byte, n int)

//go:noescape
func scaleAccum32AVX2(dst *uint64, w uint64, data *byte, n int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:build amd64

package otp

// ctrKeystream fills dst[0:16·nblocks] with AES-128-CTR keystream: block i
// is E(rk, hi ‖ ctr+i), both words big endian — the counter block of
// counterBlock with ctr, the chunk index, stepped once per block. rk
// points at the 176-byte expanded encryption schedule. The counter words
// arrive in registers, so no counter block is staged through memory.
// Implemented in ctr_amd64.s (eight-way AES-NI), which jumps to the
// 16-way VAES arm in vaes_amd64.s when useVAES is set.
//
// ctr must not wrap within the run — guaranteed here because the chunk
// index is at most 34 bits wide (checkPadRange bounds every run to the
// 38-bit address space).
//
//go:noescape
func ctrKeystream(rk *byte, hi, ctr uint64, dst *byte, nblocks int)

// encryptBlocks writes dst[16i:16i+16] = E(rk, src[16i:16i+16]) for
// nblocks independent blocks — ECB over gathered counter blocks, on the
// same two arms as ctrKeystream. dst may alias src exactly. Implemented in
// ctr_amd64.s and vaes_amd64.s.
//
//go:noescape
func encryptBlocks(rk *byte, src *byte, dst *byte, nblocks int)

// ctrKeystreamVAES and encryptBlocksVAES are the 256-bit VAES arms
// (vaes_amd64.s); ctrKeystream and encryptBlocks jump to them.
//
//go:noescape
func ctrKeystreamVAES(rk *byte, hi, ctr uint64, dst *byte, nblocks int)

//go:noescape
func encryptBlocksVAES(rk *byte, src *byte, dst *byte, nblocks int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// supportsNativeCTR reports whether the CPU has the instructions the
// AES-NI arm uses: AES-NI (CPUID.1:ECX bit 25) and SSE4.1 for PINSRQ
// (ECX bit 19).
func supportsNativeCTR() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0 && ecx&(1<<19) != 0
}

// supportsVAES gates the VAES arm the way ring gates its AVX2
// multiply-accumulate: the AES-NI arm's instructions, AVX and OSXSAVE
// (CPUID.1:ECX bits 28 and 27), the YMM state saved by the OS (XCR0 bits
// 1 and 2), AVX2 (CPUID.7.0:EBX bit 5) and VAES (CPUID.7.0:ECX bit 9).
func supportsVAES() bool {
	const osxsave, avx, avx2, vaes, ymmState = 1 << 27, 1 << 28, 1 << 5, 1 << 9, 6
	if !supportsNativeCTR() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&ymmState != ymmState {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx2 != 0 && ecx&vaes != 0
}

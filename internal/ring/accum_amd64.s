//go:build amd64

#include "textflag.h"

// AVX2 ring multiply-accumulate: dst[j] = (dst[j] + w·lane_j(data)) & mask
// for 8-, 16- and 32-bit little-endian lanes.
//
// Each step zero-extends four lanes to qwords (VPMOVZX{BQ,WQ,DQ}),
// multiplies them by the broadcast weight with VPMULUDQ, adds the four
// dst words and masks back to the lane width. VPMULUDQ sees only the low
// 32 bits of w and of the lane; a lane is at most 32 bits wide and so is
// the mask, so the low 32 bits of every product and sum — all the mask
// keeps — are exactly those of the full 64-bit arithmetic the Go loop
// does. Two vectors (eight lanes) per iteration; n must be a positive
// multiple of 8, and the Go side runs the remaining lanes.
//
// Register use:
//   DI  &dst[j]
//   SI  &data[j·eb]
//   CX  lanes left
//   Y0  w in every qword
//   Y1  lane mask in every qword

// SETUP loads the arguments and builds the mask 2^(64−shift) − 1.
#define SETUP(shift) \
	MOVQ         dst+0(FP), DI;  \
	VPBROADCASTQ w+8(FP), Y0;    \
	MOVQ         data+16(FP), SI; \
	MOVQ         n+24(FP), CX;   \
	VPCMPEQQ     Y1, Y1, Y1;     \
	VPSRLQ       $shift, Y1, Y1

// ACCUM8 folds eight lanes: four read at 0(SI) and four at half(SI).
#define ACCUM8(ZX, half) \
	ZX       (SI), Y2;         \
	ZX       half(SI), Y3;     \
	VPMULUDQ Y0, Y2, Y2;       \
	VPMULUDQ Y0, Y3, Y3;       \
	VPADDQ   (DI), Y2, Y2;     \
	VPADDQ   32(DI), Y3, Y3;   \
	VPAND    Y1, Y2, Y2;       \
	VPAND    Y1, Y3, Y3;       \
	VMOVDQU  Y2, (DI);         \
	VMOVDQU  Y3, 32(DI)

// func scaleAccum8AVX2(dst *uint64, w uint64, data *byte, n int)
TEXT ·scaleAccum8AVX2(SB), NOSPLIT, $0-32
	SETUP(56)
loop:
	ACCUM8(VPMOVZXBQ, 4)
	ADDQ $8, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func scaleAccum16AVX2(dst *uint64, w uint64, data *byte, n int)
TEXT ·scaleAccum16AVX2(SB), NOSPLIT, $0-32
	SETUP(48)
loop:
	ACCUM8(VPMOVZXWQ, 8)
	ADDQ $16, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func scaleAccum32AVX2(dst *uint64, w uint64, data *byte, n int)
TEXT ·scaleAccum32AVX2(SB), NOSPLIT, $0-32
	SETUP(32)
loop:
	ACCUM8(VPMOVZXDQ, 16)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32 — the low word of XCR0. Call only when CPUID
// reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

//go:build amd64

#include "textflag.h"

// AES-128-CTR keystream and ECB with eight-way interleaved AES-NI rounds:
// the arm every AES-NI CPU can run. Each entry point first jumps to its
// 256-bit VAES twin (vaes_amd64.s) when useVAES is set.
//
// Register use:
//   AX  expanded round keys (11 × 16 bytes)
//   DI  destination
//   CX  blocks remaining
//   R8  counter-block bytes 0..7 in memory order (hi byte-swapped) — fixed
//   R9  block counter (the chunk index ctr; bytes 8..15 big endian)
//   DX  scratch for the byte-swapped counter
//   X0-X7  state blocks
//   X8  current round key
//
// The counter increments only in its low 64 bits; callers guarantee those
// never wrap (the chunk index is at most 34 bits).

// Build one counter block: xreg = R8 ‖ bswap64(R9 + i).
#define CTRBLOCK(i, xreg) \
	LEAQ   i(R9), DX;      \
	BSWAPQ DX;             \
	MOVQ   R8, xreg;       \
	PINSRQ $1, DX, xreg

// One AES round over all eight state blocks with the round key at off(AX).
#define AESRND8(off) \
	MOVOU  off(AX), X8; \
	AESENC X8, X0;      \
	AESENC X8, X1;      \
	AESENC X8, X2;      \
	AESENC X8, X3;      \
	AESENC X8, X4;      \
	AESENC X8, X5;      \
	AESENC X8, X6;      \
	AESENC X8, X7

// func ctrKeystream(rk *byte, hi, ctr uint64, dst *byte, nblocks int)
TEXT ·ctrKeystream(SB), NOSPLIT, $0-40
	CMPB ·useVAES(SB), $0
	JEQ  aesni
	JMP  ·ctrKeystreamVAES(SB)

aesni:
	MOVQ   rk+0(FP), AX
	MOVQ   hi+8(FP), R8
	BSWAPQ R8
	MOVQ   ctr+16(FP), R9
	MOVQ   dst+24(FP), DI
	MOVQ   nblocks+32(FP), CX

loop8:
	CMPQ CX, $8
	JB   tail

	CTRBLOCK(0, X0)
	CTRBLOCK(1, X1)
	CTRBLOCK(2, X2)
	CTRBLOCK(3, X3)
	CTRBLOCK(4, X4)
	CTRBLOCK(5, X5)
	CTRBLOCK(6, X6)
	CTRBLOCK(7, X7)
	ADDQ $8, R9

	// Round 0: whitening.
	MOVOU 0(AX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	PXOR  X8, X4
	PXOR  X8, X5
	PXOR  X8, X6
	PXOR  X8, X7

	AESRND8(16)
	AESRND8(32)
	AESRND8(48)
	AESRND8(64)
	AESRND8(80)
	AESRND8(96)
	AESRND8(112)
	AESRND8(128)
	AESRND8(144)

	MOVOU       160(AX), X8
	AESENCLAST  X8, X0
	AESENCLAST  X8, X1
	AESENCLAST  X8, X2
	AESENCLAST  X8, X3
	AESENCLAST  X8, X4
	AESENCLAST  X8, X5
	AESENCLAST  X8, X6
	AESENCLAST  X8, X7

	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   loop8

tail:
	TESTQ CX, CX
	JE    done

tailloop:
	CTRBLOCK(0, X0)
	ADDQ $1, R9

	MOVOU      0(AX), X8
	PXOR       X8, X0
	MOVOU      16(AX), X8
	AESENC     X8, X0
	MOVOU      32(AX), X8
	AESENC     X8, X0
	MOVOU      48(AX), X8
	AESENC     X8, X0
	MOVOU      64(AX), X8
	AESENC     X8, X0
	MOVOU      80(AX), X8
	AESENC     X8, X0
	MOVOU      96(AX), X8
	AESENC     X8, X0
	MOVOU      112(AX), X8
	AESENC     X8, X0
	MOVOU      128(AX), X8
	AESENC     X8, X0
	MOVOU      144(AX), X8
	AESENC     X8, X0
	MOVOU      160(AX), X8
	AESENCLAST X8, X0

	MOVOU X0, 0(DI)
	ADDQ  $16, DI
	DECQ  CX
	JNZ   tailloop

done:
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
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func encryptBlocks(rk *byte, src *byte, dst *byte, nblocks int)
//
// ECB over independent pre-built counter blocks: dst[i] = E(rk, src[i]).
// Unlike ctrKeystream the blocks need not be consecutive counters — the
// caller gathers arbitrary counter blocks (e.g. one tag counter per
// referenced table row, or a row's data chunks followed by its tag) into
// src and gets all of them encrypted in one eight-way interleaved walk.
// dst may alias src exactly (in-place encryption).
TEXT ·encryptBlocks(SB), NOSPLIT, $0-32
	CMPB ·useVAES(SB), $0
	JEQ  eaesni
	JMP  ·encryptBlocksVAES(SB)

eaesni:
	MOVQ rk+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ nblocks+24(FP), CX

eloop8:
	CMPQ CX, $8
	JB   etail

	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	ADDQ  $128, SI

	// Round 0: whitening.
	MOVOU 0(AX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	PXOR  X8, X4
	PXOR  X8, X5
	PXOR  X8, X6
	PXOR  X8, X7

	AESRND8(16)
	AESRND8(32)
	AESRND8(48)
	AESRND8(64)
	AESRND8(80)
	AESRND8(96)
	AESRND8(112)
	AESRND8(128)
	AESRND8(144)

	MOVOU      160(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7

	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   eloop8

etail:
	TESTQ CX, CX
	JE    edone

etailloop:
	MOVOU 0(SI), X0
	ADDQ  $16, SI

	MOVOU      0(AX), X8
	PXOR       X8, X0
	MOVOU      16(AX), X8
	AESENC     X8, X0
	MOVOU      32(AX), X8
	AESENC     X8, X0
	MOVOU      48(AX), X8
	AESENC     X8, X0
	MOVOU      64(AX), X8
	AESENC     X8, X0
	MOVOU      80(AX), X8
	AESENC     X8, X0
	MOVOU      96(AX), X8
	AESENC     X8, X0
	MOVOU      112(AX), X8
	AESENC     X8, X0
	MOVOU      128(AX), X8
	AESENC     X8, X0
	MOVOU      144(AX), X8
	AESENC     X8, X0
	MOVOU      160(AX), X8
	AESENCLAST X8, X0

	MOVOU X0, 0(DI)
	ADDQ  $16, DI
	DECQ  CX
	JNZ   etailloop

edone:
	RET

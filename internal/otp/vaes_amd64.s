//go:build amd64

#include "textflag.h"

// AES-128 with 256-bit VAES: each Y register holds two blocks, and eight
// of them take 16 blocks through every round together. VEX encoding only,
// Y0–Y15 only (no 512-bit state, so no frequency licence and no upper-Z
// save), and VZEROUPPER on every exit. ctrKeystream and encryptBlocks
// (ctr_amd64.s) jump here when useVAES is set.
//
// Register use:
//   AX  expanded round keys (11 × 16 bytes; each broadcast to both lanes)
//   DI  destination, SI source (encryptBlocksVAES)
//   CX  blocks remaining
//   Y0-Y7  state, two blocks each
//   Y12 current round key in both lanes
//   Y13 next two counter blocks as integer qwords: [hi, ctr | hi, ctr+1]
//   Y14 per-qword byte swap (the counter block is big endian)
//   Y15 counter step: [0, 2 | 0, 2]
//
// The counter increments only in its low 64 bits; callers guarantee those
// never wrap (the chunk index is at most 34 bits).

DATA vaesBswap<>+0x00(SB)/8, $0x0001020304050607
DATA vaesBswap<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA vaesBswap<>+0x10(SB)/8, $0x0001020304050607
DATA vaesBswap<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
GLOBL vaesBswap<>(SB), RODATA|NOPTR, $32

DATA vaesLane<>+0x00(SB)/8, $0
DATA vaesLane<>+0x08(SB)/8, $0
DATA vaesLane<>+0x10(SB)/8, $0
DATA vaesLane<>+0x18(SB)/8, $1
GLOBL vaesLane<>(SB), RODATA|NOPTR, $32

DATA vaesStep<>+0x00(SB)/8, $0
DATA vaesStep<>+0x08(SB)/8, $2
DATA vaesStep<>+0x10(SB)/8, $0
DATA vaesStep<>+0x18(SB)/8, $2
GLOBL vaesStep<>(SB), RODATA|NOPTR, $32

// The next two counter blocks into y.
#define VCTR(y) \
	VPSHUFB Y14, Y13, y; \
	VPADDQ  Y15, Y13, Y13

// One round over 8, 4, 2 or 1 state registers with the key in Y12.
#define RND8(op) \
	op Y12, Y0, Y0; \
	op Y12, Y1, Y1; \
	op Y12, Y2, Y2; \
	op Y12, Y3, Y3; \
	op Y12, Y4, Y4; \
	op Y12, Y5, Y5; \
	op Y12, Y6, Y6; \
	op Y12, Y7, Y7

#define RND4(op) \
	op Y12, Y0, Y0; \
	op Y12, Y1, Y1; \
	op Y12, Y2, Y2; \
	op Y12, Y3, Y3

#define RND2(op) \
	op Y12, Y0, Y0; \
	op Y12, Y1, Y1

#define RND1(op) op Y12, Y0, Y0

// Whitening, nine rounds and the last round, each key broadcast from
// the 16-byte schedule as its round starts.
#define ENC(RND) \
	VBROADCASTI128 0(AX), Y12;   RND(VPXOR);       \
	VBROADCASTI128 16(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 32(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 48(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 64(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 80(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 96(AX), Y12;  RND(VAESENC);     \
	VBROADCASTI128 112(AX), Y12; RND(VAESENC);     \
	VBROADCASTI128 128(AX), Y12; RND(VAESENC);     \
	VBROADCASTI128 144(AX), Y12; RND(VAESENC);     \
	VBROADCASTI128 160(AX), Y12; RND(VAESENCLAST)

// One block in X0, VEX.128, keys straight from memory.
#define ENC1 \
	VPXOR       0(AX), X0, X0;   \
	VAESENC     16(AX), X0, X0;  \
	VAESENC     32(AX), X0, X0;  \
	VAESENC     48(AX), X0, X0;  \
	VAESENC     64(AX), X0, X0;  \
	VAESENC     80(AX), X0, X0;  \
	VAESENC     96(AX), X0, X0;  \
	VAESENC     112(AX), X0, X0; \
	VAESENC     128(AX), X0, X0; \
	VAESENC     144(AX), X0, X0; \
	VAESENCLAST 160(AX), X0, X0

#define STORE8 \
	VMOVDQU Y0, 0(DI);   \
	VMOVDQU Y1, 32(DI);  \
	VMOVDQU Y2, 64(DI);  \
	VMOVDQU Y3, 96(DI);  \
	VMOVDQU Y4, 128(DI); \
	VMOVDQU Y5, 160(DI); \
	VMOVDQU Y6, 192(DI); \
	VMOVDQU Y7, 224(DI)

#define STORE4 \
	VMOVDQU Y0, 0(DI);  \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI)

#define STORE2 \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI)

#define LOAD8 \
	VMOVDQU 0(SI), Y0;   \
	VMOVDQU 32(SI), Y1;  \
	VMOVDQU 64(SI), Y2;  \
	VMOVDQU 96(SI), Y3;  \
	VMOVDQU 128(SI), Y4; \
	VMOVDQU 160(SI), Y5; \
	VMOVDQU 192(SI), Y6; \
	VMOVDQU 224(SI), Y7

#define LOAD4 \
	VMOVDQU 0(SI), Y0;  \
	VMOVDQU 32(SI), Y1; \
	VMOVDQU 64(SI), Y2; \
	VMOVDQU 96(SI), Y3

#define LOAD2 \
	VMOVDQU 0(SI), Y0; \
	VMOVDQU 32(SI), Y1

// func ctrKeystreamVAES(rk *byte, hi, ctr uint64, dst *byte, nblocks int)
//
// 16 blocks per iteration; a tail of 1–15 blocks takes one step each of
// 8, 4, 2 and 1 blocks as its bits say.
TEXT ·ctrKeystreamVAES(SB), NOSPLIT, $0-40
	MOVQ rk+0(FP), AX
	MOVQ hi+8(FP), R8
	MOVQ ctr+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ nblocks+32(FP), CX

	VMOVQ       R8, X13
	VPINSRQ     $1, R9, X13, X13
	VINSERTI128 $1, X13, Y13, Y13
	VPADDQ      vaesLane<>(SB), Y13, Y13
	VMOVDQU     vaesBswap<>(SB), Y14
	VMOVDQU     vaesStep<>(SB), Y15

loop16:
	CMPQ CX, $16
	JB   tail8
	VCTR(Y0)
	VCTR(Y1)
	VCTR(Y2)
	VCTR(Y3)
	VCTR(Y4)
	VCTR(Y5)
	VCTR(Y6)
	VCTR(Y7)
	ENC(RND8)
	STORE8
	ADDQ $256, DI
	SUBQ $16, CX
	JMP  loop16

tail8:
	TESTQ $8, CX
	JZ    tail4
	VCTR(Y0)
	VCTR(Y1)
	VCTR(Y2)
	VCTR(Y3)
	ENC(RND4)
	STORE4
	ADDQ  $128, DI

tail4:
	TESTQ $4, CX
	JZ    tail2
	VCTR(Y0)
	VCTR(Y1)
	ENC(RND2)
	STORE2
	ADDQ  $64, DI

tail2:
	TESTQ $2, CX
	JZ    tail1
	VCTR(Y0)
	ENC(RND1)
	VMOVDQU Y0, 0(DI)
	ADDQ    $32, DI

tail1:
	TESTQ   $1, CX
	JZ      done
	VPSHUFB X14, X13, X0
	ENC1
	VMOVDQU X0, 0(DI)

done:
	VZEROUPPER
	RET

// func encryptBlocksVAES(rk *byte, src *byte, dst *byte, nblocks int)
//
// ECB over gathered counter blocks, in the same steps as
// ctrKeystreamVAES. Every step loads its blocks before it stores any, so
// dst may alias src exactly.
TEXT ·encryptBlocksVAES(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ nblocks+24(FP), CX

eloop16:
	CMPQ CX, $16
	JB   etail8
	LOAD8
	ENC(RND8)
	STORE8
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $16, CX
	JMP  eloop16

etail8:
	TESTQ $8, CX
	JZ    etail4
	LOAD4
	ENC(RND4)
	STORE4
	ADDQ  $128, SI
	ADDQ  $128, DI

etail4:
	TESTQ $4, CX
	JZ    etail2
	LOAD2
	ENC(RND2)
	STORE2
	ADDQ  $64, SI
	ADDQ  $64, DI

etail2:
	TESTQ $2, CX
	JZ    etail1
	VMOVDQU 0(SI), Y0
	ENC(RND1)
	VMOVDQU Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

etail1:
	TESTQ   $1, CX
	JZ      edone
	VMOVDQU 0(SI), X0
	ENC1
	VMOVDQU X0, 0(DI)

edone:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// func prefetchLines(p *byte, n int)
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	ADDQ AX, CX      // CX = one past the last byte
	ANDQ $~63, AX    // AX = start of the first line
loop:
	CMPQ AX, CX
	JAE  done
	PREFETCHT0 (AX)
	ADDQ $64, AX
	JMP  loop
done:
	RET

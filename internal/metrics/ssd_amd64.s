//go:build amd64 && !purego

// SSE2 sum of squared byte differences (ssd calls it when useSSE2, which
// init sets; SSE2 is baseline amd64). A difference of two bytes is at most
// 255 in magnitude, so PMADDWD of the word differences with themselves adds
// two squares, at most 130050, into each int32 lane; two such per 16 bytes
// is at most 260100 a lane per chunk. A lane is widened into the int64
// total every 8192 chunks, below 2³¹, so no partial sum wraps and the
// result is the exact integer. The chunk loop's head is PCALIGN $64, so its
// speed does not follow the layout of the code linked before it.

#include "textflag.h"

// func ssdSSE2(a, b []uint8) uint64
//   X0: 0   X4: int32 lanes of the current block   X6: int64 total
TEXT ·ssdSSE2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	PXOR X0, X0
	PXOR X6, X6
	SHRQ $4, CX              // 16-byte chunks
	JEQ  done

block:
	MOVQ CX, DX              // chunks in this block: min(CX, 8192)
	CMPQ DX, $8192
	JLE  blockset
	MOVQ $8192, DX

blockset:
	SUBQ DX, CX
	PXOR X4, X4

	PCALIGN $64
chunk:
	MOVOU     (SI), X1
	MOVOU     (DI), X2
	MOVO      X1, X3
	MOVO      X2, X5
	PUNPCKLBW X0, X1
	PUNPCKHBW X0, X3
	PUNPCKLBW X0, X2
	PUNPCKHBW X0, X5
	PSUBW     X2, X1
	PSUBW     X5, X3
	PMADDWL   X1, X1
	PMADDWL   X3, X3
	PADDL     X1, X4
	PADDL     X3, X4
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ DX
	JNZ  chunk

	MOVO      X4, X1
	PUNPCKLLQ X0, X4         // lanes 0, 1 as int64
	PUNPCKHLQ X0, X1         // lanes 2, 3
	PADDQ     X4, X6
	PADDQ     X1, X6
	TESTQ CX, CX
	JNZ   block

done:
	PSHUFD $0x4e, X6, X1
	PADDQ  X1, X6
	MOVQ   X6, ret+48(FP)
	RET

//go:build amd64 && !purego

// SSE2 cost kernels of the encoder's mode decision (sad8x8 and
// intraSAD8x8 call them when useSSE2, which init sets; SSE2 is baseline
// amd64). Two 8-byte rows share an XMM, MOVQ the low half and MOVHPS the
// high one, so a block is four row pairs. PSADBW leaves each half's sum of
// eight byte distances in its low 16 bits; the halves are summed with PADDQ
// and folded once at the end. Everything is exact integer arithmetic, so
// the results are the Go twins' bit for bit. Each kernel reads rows 0..7
// at base + y*stride, the bytes the caller's 7*stride+8 slice holds, and
// nothing else. Neither has a loop; each body starts PCALIGN $64, so its
// fetch does not follow the layout of the code linked before it.

#include "textflag.h"

// ROWPAIR loads the 8-byte rows at b and b+s into the low and high halves
// of x; the kernels advance b by two rows between pairs.
#define ROWPAIR(b, s, x) \
	MOVQ   (b), x; \
	MOVHPS (b)(s*1), x

// func sad8x8SSE2(cur []uint8, cs int, ref []uint8, rs int) int
TEXT ·sad8x8SSE2(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ cur_base+0(FP), SI
	MOVQ cs+24(FP), AX
	MOVQ ref_base+32(FP), DI
	MOVQ rs+56(FP), BX

	ROWPAIR(SI, AX, X0)      // rows 0-1
	ROWPAIR(DI, BX, X1)
	PSADBW X1, X0
	LEAQ (SI)(AX*2), SI
	LEAQ (DI)(BX*2), DI
	ROWPAIR(SI, AX, X2)      // rows 2-3
	ROWPAIR(DI, BX, X3)
	PSADBW X3, X2
	PADDQ  X2, X0
	LEAQ (SI)(AX*2), SI
	LEAQ (DI)(BX*2), DI
	ROWPAIR(SI, AX, X2)      // rows 4-5
	ROWPAIR(DI, BX, X3)
	PSADBW X3, X2
	PADDQ  X2, X0
	LEAQ (SI)(AX*2), SI
	LEAQ (DI)(BX*2), DI
	ROWPAIR(SI, AX, X2)      // rows 6-7
	ROWPAIR(DI, BX, X3)
	PSADBW X3, X2
	PADDQ  X2, X0

	PSHUFD $0x4e, X0, X1     // swap halves
	PADDQ  X1, X0
	MOVQ   X0, ret+64(FP)
	RET

// INTRAPAIR adds one row pair's Σ max(p−ce, 0) + max(fl−p, 0) to X4:
// PMAXUB(p, ce) − ce and fl − PMINUB(p, fl) are both non-negative, so
// PSADBW against ce and fl sums them. X6 holds fl and X7 ce in every byte.
#define INTRAPAIR(b, s) \
	ROWPAIR(b, s, X0); \
	MOVO   X0, X1; \
	PMAXUB X7, X0; \
	PSADBW X7, X0; \
	PMINUB X6, X1; \
	PSADBW X6, X1; \
	PADDQ  X0, X4; \
	PADDQ  X1, X4

// func intraSAD8x8SSE2(cur []uint8, cs int, fl, ce int) int
TEXT ·intraSAD8x8SSE2(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ cur_base+0(FP), SI
	MOVQ cs+24(FP), AX
	MOVQ fl+32(FP), BX
	MOVQ ce+40(FP), CX
	MOVQ $0x0101010101010101, DX
	IMULQ DX, BX             // fl in each of 8 bytes
	IMULQ DX, CX
	MOVQ BX, X6
	PUNPCKLQDQ X6, X6        // ... and of 16
	MOVQ CX, X7
	PUNPCKLQDQ X7, X7
	PXOR X4, X4

	INTRAPAIR(SI, AX)        // rows 0-1
	LEAQ (SI)(AX*2), SI
	INTRAPAIR(SI, AX)        // rows 2-3
	LEAQ (SI)(AX*2), SI
	INTRAPAIR(SI, AX)        // rows 4-5
	LEAQ (SI)(AX*2), SI
	INTRAPAIR(SI, AX)        // rows 6-7

	PSHUFD $0x4e, X4, X1
	PADDQ  X1, X4
	MOVQ   X4, ret+48(FP)
	RET

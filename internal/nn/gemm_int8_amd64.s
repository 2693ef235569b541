//go:build amd64 && !purego

// Int8 micro-kernels for the quantized inference path. The int8 values
// travel in int16 containers so the whole pipeline is PMADDWD-shaped: one
// pmaddwd consumes two taps per output element and accumulates exactly in
// int32, which makes every kernel variant bit-identical by construction
// (see gemm_int8.go). The AVX2 kernel is primary; the SSE2 ones run on any
// amd64 (SSE2 is the amd64 baseline) and kernel choice happens once at init
// from cpuHasAVX2 (cpu_amd64.go).
//
// B is implicit: the row block's zero-bordered int16 copy, read through a
// table of tap offsets (gemm_int8.go), so each tap-pair step loads
// off[2p] and off[2p+1] (MOVLQSX) and reads its two B runs there. The
// tap-pair interleave the pmaddwd dataflow needs is done in-register with
// punpcklwd/punpckhwd (two unpacks amortized over four output rows), so
// the block copy stays the only data movement.

#include "textflag.h"

// func qkern4x16(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)
//
// AVX2: 4 output rows × 16 columns, kk2 tap-pair steps. a is one wqPack
// block ([kk2][4 channels][2 taps] int16) so one channel's tap pair is a
// 32-bit broadcast. Accumulator map (punpck works per 128-bit lane, so the
// column split is {0-3,8-11}/{4-7,12-15}; the store section undoes it):
//   Y0,Y1: row 0    Y2,Y3: row 1    Y4,Y5: row 2    Y6,Y7: row 3
TEXT ·qkern4x16(SB), NOSPLIT, $0-48
	MOVQ kk2+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ cn+40(FP), R9
	SHLQ $2, R9              // C row stride in bytes (int32)

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	TESTQ CX, CX
	JLE   q4x16done

q4x16loop:
	MOVLQSX (DX), AX         // off[2p]
	MOVLQSX 4(DX), R10       // off[2p+1]
	VMOVDQU (BX)(AX*2), Y13  // B[2p][j..j+15]
	VMOVDQU (BX)(R10*2), Y14 // B[2p+1][j..j+15]
	VPUNPCKLWD Y14, Y13, Y8  // tap pairs, cols {0-3, 8-11}
	VPUNPCKHWD Y14, Y13, Y9  // tap pairs, cols {4-7, 12-15}

	VPBROADCASTD (SI), Y10   // channel 0 tap pair
	VPMADDWD Y8, Y10, Y11
	VPADDD   Y11, Y0, Y0
	VPMADDWD Y9, Y10, Y12
	VPADDD   Y12, Y1, Y1

	VPBROADCASTD 4(SI), Y10  // channel 1
	VPMADDWD Y8, Y10, Y11
	VPADDD   Y11, Y2, Y2
	VPMADDWD Y9, Y10, Y12
	VPADDD   Y12, Y3, Y3

	VPBROADCASTD 8(SI), Y10  // channel 2
	VPMADDWD Y8, Y10, Y11
	VPADDD   Y11, Y4, Y4
	VPMADDWD Y9, Y10, Y12
	VPADDD   Y12, Y5, Y5

	VPBROADCASTD 12(SI), Y10 // channel 3
	VPMADDWD Y8, Y10, Y11
	VPADDD   Y11, Y6, Y6
	VPMADDWD Y9, Y10, Y12
	VPADDD   Y12, Y7, Y7

	ADDQ $16, SI
	ADDQ $8, DX              // next tap pair's offsets
	DECQ CX
	JNZ  q4x16loop

q4x16done:
	VMOVDQU X0, (DI)         // row r: lo(Y2r)=cols 0-3, lo(Y2r+1)=cols 4-7,
	VMOVDQU X1, 16(DI)       // hi(Y2r)=cols 8-11, hi(Y2r+1)=cols 12-15
	VEXTRACTI128 $1, Y0, X13
	VMOVDQU X13, 32(DI)
	VEXTRACTI128 $1, Y1, X13
	VMOVDQU X13, 48(DI)
	ADDQ R9, DI
	VMOVDQU X2, (DI)
	VMOVDQU X3, 16(DI)
	VEXTRACTI128 $1, Y2, X13
	VMOVDQU X13, 32(DI)
	VEXTRACTI128 $1, Y3, X13
	VMOVDQU X13, 48(DI)
	ADDQ R9, DI
	VMOVDQU X4, (DI)
	VMOVDQU X5, 16(DI)
	VEXTRACTI128 $1, Y4, X13
	VMOVDQU X13, 32(DI)
	VEXTRACTI128 $1, Y5, X13
	VMOVDQU X13, 48(DI)
	ADDQ R9, DI
	VMOVDQU X6, (DI)
	VMOVDQU X7, 16(DI)
	VEXTRACTI128 $1, Y6, X13
	VMOVDQU X13, 32(DI)
	VEXTRACTI128 $1, Y7, X13
	VMOVDQU X13, 48(DI)
	VZEROUPPER
	RET

// func qkern4x8s(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)
//
// SSE2 pmaddwd fallback: 4 output rows × 8 columns, same contract.
//   X0,X1: row 0 cols 0-3, 4-7    X4,X5: row 2
//   X2,X3: row 1                  X6,X7: row 3
TEXT ·qkern4x8s(SB), NOSPLIT, $0-48
	MOVQ kk2+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ cn+40(FP), R9
	SHLQ $2, R9              // C row stride in bytes (int32)

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JLE   q4x8done

q4x8loop:
	MOVLQSX (DX), AX         // off[2p]
	MOVLQSX 4(DX), R10       // off[2p+1]
	MOVOU (BX)(AX*2), X13    // B[2p][j..j+7]
	MOVOU (BX)(R10*2), X14   // B[2p+1][j..j+7]
	MOVOU X13, X8
	PUNPCKLWL X14, X8        // tap pairs, cols 0-3
	MOVOU X13, X9
	PUNPCKHWL X14, X9        // tap pairs, cols 4-7

	MOVL   (SI), X10         // channel 0 tap pair
	PSHUFD $0x00, X10, X10
	MOVOU  X8, X11
	PMADDWL X10, X11
	PADDD  X11, X0
	MOVOU  X9, X11
	PMADDWL X10, X11
	PADDD  X11, X1

	MOVL   4(SI), X10        // channel 1
	PSHUFD $0x00, X10, X10
	MOVOU  X8, X11
	PMADDWL X10, X11
	PADDD  X11, X2
	MOVOU  X9, X11
	PMADDWL X10, X11
	PADDD  X11, X3

	MOVL   8(SI), X10        // channel 2
	PSHUFD $0x00, X10, X10
	MOVOU  X8, X11
	PMADDWL X10, X11
	PADDD  X11, X4
	MOVOU  X9, X11
	PMADDWL X10, X11
	PADDD  X11, X5

	MOVL   12(SI), X10       // channel 3
	PSHUFD $0x00, X10, X10
	MOVOU  X8, X11
	PMADDWL X10, X11
	PADDD  X11, X6
	MOVOU  X9, X11
	PMADDWL X10, X11
	PADDD  X11, X7

	ADDQ $16, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  q4x8loop

q4x8done:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	ADDQ  R9, DI
	MOVOU X2, (DI)
	MOVOU X3, 16(DI)
	ADDQ  R9, DI
	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	ADDQ  R9, DI
	MOVOU X6, (DI)
	MOVOU X7, 16(DI)
	RET

// func qrequant(n8 int, acc *int32, m, bh float32, out *int16)
//
// SSE2 requant epilogue: out[i] = int16(trunc(clamp(acc[i]*m + bh, 0, 127)))
// for n8 (a positive multiple of 8) elements. bh carries bias + 0.5, so the
// truncation implements round-half-up; values stay in [0, 127] so the
// packssdw saturation never fires and the Go tail in requantReLU computes
// identical bits. acc rows start wherever a channel's row of the
// accumulator panel does, so the loads are MOVOU: a legacy-SSE memory
// operand such as CVTPL2PS (SI) demands 16-byte alignment and faults
// without it.
TEXT ·qrequant(SB), NOSPLIT, $0-32
	MOVQ n8+0(FP), CX
	MOVQ acc+8(FP), SI
	MOVSS m+16(FP), X5
	SHUFPS $0x00, X5, X5
	MOVSS bh+20(FP), X6
	SHUFPS $0x00, X6, X6
	MOVQ out+24(FP), DI
	XORPS X7, X7             // 0.0 ×4
	MOVL $0x42FE0000, AX     // 127.0f
	MOVL AX, X4
	SHUFPS $0x00, X4, X4

qreqloop:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	CVTPL2PS X0, X0          // int32 → float32
	CVTPL2PS X1, X1
	MULPS X5, X0
	ADDPS X6, X0
	MINPS X4, X0
	MAXPS X7, X0
	MULPS X5, X1
	ADDPS X6, X1
	MINPS X4, X1
	MAXPS X7, X1
	CVTTPS2PL X0, X0         // truncate toward zero
	CVTTPS2PL X1, X1
	PACKSSLW X1, X0          // 8 × int16
	MOVOU X0, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JNZ  qreqloop
	RET

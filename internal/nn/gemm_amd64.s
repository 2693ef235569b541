//go:build amd64 && !purego

// f32 micro-kernels for the nn kernel engine. Element-wise mul then add
// only — no FMA, which rounds once where the scalar reference rounds twice
// — so every output element sees the same float32 rounding as the scalar
// reference (vector lanes are independent IEEE operations). The product
// keeps the scalar operand order, A·B, and the sum acc+product.
//
// The tiles are implicit-GEMM: B is not a packed panel but a bordered
// block read through an offset table (im2col.go), so each kidx step loads
// off[p] (MOVLQSX) and reads its B run at b + 4·off[p]. With relu set the
// store rectifies: MAXPS zero, acc, acc in Go operand order, i.e. Intel
// MAXPS acc, zero. MAXPS returns its second source unless the first is
// greater, so with the accumulator first, NaN, −0 and +0 all store +0 —
// ReLU.Forward's `v > 0` predicate, bit for bit. The other operand order
// would let NaN and −0 through.
//
// kern8x8 and kern4x16 are AVX2 (VEX-encoded, YMM): gemm_amd64.go installs
// them only when cpu.AVX2, and each ends with VZEROUPPER so the SSE2
// kernels and the runtime that follow pay no transition penalty. kern4x8,
// kern1x8 and kernDot4 are SSE2, the amd64 baseline, and run everywhere.
// Every memory access is an unaligned load or store (VMOVUPS, MOVUPS,
// VBROADCASTSS, MOVSS): a legacy-SSE arithmetic instruction with a memory
// operand (MULPS (SI), X0) demands 16-byte alignment, which arena buffers
// and row offsets do not give. Every loop head is PCALIGN $64, so a
// loop's speed does not follow the 64-byte parity of the code linked
// before it.

#include "textflag.h"

// func kern8x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
//
// AVX2: 8 output rows × 8 columns from a [kk][8] packed A (packA). Y0..Y7
// hold rows 0..7 and start at the broadcast bias; each step is one offset
// load, one B load and eight broadcast-multiply-adds.
TEXT ·kern8x8(SB), NOSPLIT, $0-57
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI
	MOVQ cn+48(FP), R9
	SHLQ $2, R9              // C row stride in bytes

	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	VBROADCASTSS 16(R8), Y4
	VBROADCASTSS 20(R8), Y5
	VBROADCASTSS 24(R8), Y6
	VBROADCASTSS 28(R8), Y7

	TESTQ CX, CX
	JLE   k8x8done

	PCALIGN $64
k8x8loop:
	MOVLQSX (DX), AX         // off[p]
	VMOVUPS (BX)(AX*4), Y8   // B[p][0..7]

	VBROADCASTSS 0(SI), Y9   // A[p][0]
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 4(SI), Y10  // A[p][1]
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(SI), Y11  // A[p][2]
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS 12(SI), Y12 // A[p][3]
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS 16(SI), Y13 // A[p][4]
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	VBROADCASTSS 20(SI), Y14 // A[p][5]
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5
	VBROADCASTSS 24(SI), Y15 // A[p][6]
	VMULPS       Y8, Y15, Y15
	VADDPS       Y15, Y6, Y6
	VBROADCASTSS 28(SI), Y9  // A[p][7]
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k8x8loop

k8x8done:
	CMPB relu+56(FP), $0
	JEQ  k8x8store
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0        // Intel VMAXPS Y0, Y0, Y8: acc > 0 ? acc : +0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

k8x8store:
	VMOVUPS Y0, (DI)
	ADDQ    R9, DI
	VMOVUPS Y1, (DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	ADDQ    R9, DI
	VMOVUPS Y3, (DI)
	ADDQ    R9, DI
	VMOVUPS Y4, (DI)
	ADDQ    R9, DI
	VMOVUPS Y5, (DI)
	ADDQ    R9, DI
	VMOVUPS Y6, (DI)
	ADDQ    R9, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func kern4x16(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
//
// AVX2: 4 output rows × 16 columns from a [kk][4] packed A (packA), the
// kern4x8 layout. Accumulators start at the broadcast bias:
//   Y0,Y1: row 0 cols 0-7, 8-15    Y4,Y5: row 2
//   Y2,Y3: row 1                   Y6,Y7: row 3
TEXT ·kern4x16(SB), NOSPLIT, $0-57
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI
	MOVQ cn+48(FP), R9
	SHLQ $2, R9              // C row stride in bytes

	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 0(R8), Y1
	VBROADCASTSS 4(R8), Y2
	VBROADCASTSS 4(R8), Y3
	VBROADCASTSS 8(R8), Y4
	VBROADCASTSS 8(R8), Y5
	VBROADCASTSS 12(R8), Y6
	VBROADCASTSS 12(R8), Y7

	TESTQ CX, CX
	JLE   k4x16done

	PCALIGN $64
k4x16loop:
	MOVLQSX (DX), AX          // off[p]
	VMOVUPS (BX)(AX*4), Y8    // B[p][0..7]
	VMOVUPS 32(BX)(AX*4), Y9  // B[p][8..15]

	VBROADCASTSS 0(SI), Y10  // A[p][0]
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y1, Y1

	VBROADCASTSS 4(SI), Y13  // A[p][1]
	VMULPS       Y8, Y13, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y9, Y13, Y15
	VADDPS       Y15, Y3, Y3

	VBROADCASTSS 8(SI), Y10  // A[p][2]
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y5, Y5

	VBROADCASTSS 12(SI), Y13 // A[p][3]
	VMULPS       Y8, Y13, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y9, Y13, Y15
	VADDPS       Y15, Y7, Y7

	ADDQ $16, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k4x16loop

k4x16done:
	CMPB relu+56(FP), $0
	JEQ  k4x16store
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0        // accumulator first: NaN, −0 → +0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

k4x16store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func kern4x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
//
// SSE2: 4 output rows × 8 columns. Accumulators start at the broadcast
// bias and add one ascending-p term at a time:
//   X0,X1: row 0 cols 0-3, 4-7    X4,X5: row 2
//   X2,X3: row 1                  X6,X7: row 3
TEXT ·kern4x8(SB), NOSPLIT, $0-57
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI
	MOVQ cn+48(FP), R9
	SHLQ $2, R9              // C row stride in bytes

	MOVSS  0(R8), X0
	SHUFPS $0x00, X0, X0
	MOVAPS X0, X1
	MOVSS  4(R8), X2
	SHUFPS $0x00, X2, X2
	MOVAPS X2, X3
	MOVSS  8(R8), X4
	SHUFPS $0x00, X4, X4
	MOVAPS X4, X5
	MOVSS  12(R8), X6
	SHUFPS $0x00, X6, X6
	MOVAPS X6, X7

	TESTQ CX, CX
	JLE   k4x8done

	PCALIGN $64
k4x8loop:
	MOVLQSX (DX), AX         // off[p]
	MOVUPS (BX)(AX*4), X8    // B[p][0..3]
	MOVUPS 16(BX)(AX*4), X9  // B[p][4..7]
	MOVUPS 0(SI), X10        // packed A[p][0..3]

	MOVAPS X10, X11
	SHUFPS $0x00, X11, X11   // broadcast A[p][0]
	MOVAPS X11, X12
	MULPS  X8, X11
	ADDPS  X11, X0
	MULPS  X9, X12
	ADDPS  X12, X1

	MOVAPS X10, X11
	SHUFPS $0x55, X11, X11   // A[p][1]
	MOVAPS X11, X12
	MULPS  X8, X11
	ADDPS  X11, X2
	MULPS  X9, X12
	ADDPS  X12, X3

	MOVAPS X10, X11
	SHUFPS $0xAA, X11, X11   // A[p][2]
	MOVAPS X11, X12
	MULPS  X8, X11
	ADDPS  X11, X4
	MULPS  X9, X12
	ADDPS  X12, X5

	SHUFPS $0xFF, X10, X10   // A[p][3]
	MOVAPS X10, X12
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X12
	ADDPS  X12, X7

	ADDQ $16, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k4x8loop

k4x8done:
	CMPB relu+56(FP), $0
	JEQ  k4x8store
	XORPS X8, X8
	MAXPS X8, X0             // Intel MAXPS X0, X8: acc > 0 ? acc : +0
	MAXPS X8, X1
	MAXPS X8, X2
	MAXPS X8, X3
	MAXPS X8, X4
	MAXPS X8, X5
	MAXPS X8, X6
	MAXPS X8, X7

k4x8store:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	ADDQ   R9, DI
	MOVUPS X2, 0(DI)
	MOVUPS X3, 16(DI)
	ADDQ   R9, DI
	MOVUPS X4, 0(DI)
	MOVUPS X5, 16(DI)
	ADDQ   R9, DI
	MOVUPS X6, 0(DI)
	MOVUPS X7, 16(DI)
	RET

// func kern1x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool)
//
// Single output row × 8 columns, for the m-tail of gemmConvBias. Same
// ascending-p element-wise accumulation and relu store as kern4x8; a is the
// unpacked (contiguous) A row.
TEXT ·kern1x8(SB), NOSPLIT, $0-49
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI

	MOVSS  0(R8), X0         // broadcast bias into both accumulators
	SHUFPS $0x00, X0, X0
	MOVAPS X0, X1

	TESTQ CX, CX
	JLE   k1x8done

	PCALIGN $64
k1x8loop:
	MOVSS  0(SI), X4         // broadcast a[p]
	SHUFPS $0x00, X4, X4
	MOVLQSX (DX), AX         // off[p]
	MOVUPS (BX)(AX*4), X8    // B[p][0..3]
	MOVUPS 16(BX)(AX*4), X9  // B[p][4..7]
	MOVAPS X4, X5
	MULPS  X8, X4
	ADDPS  X4, X0
	MULPS  X9, X5
	ADDPS  X5, X1

	ADDQ $4, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k1x8loop

k1x8done:
	CMPB relu+48(FP), $0
	JEQ  k1x8store
	XORPS X8, X8
	MAXPS X8, X0             // accumulator first: NaN, −0 → +0
	MAXPS X8, X1

k1x8store:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	RET

// func kernDot4(n int, gv *float32, b *float32, bn int, out *float32)
//
// out[r] = Σ_{p<n} g[p]*b[r*bn+p], r in 0..3, n a multiple of 4. Four lane
// partials per row, reduced as (l0+l2)+(l1+l3) — gemmDotRows mirrors this
// order in its scalar fallback.
TEXT ·kernDot4(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ gv+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ bn+24(FP), DX
	MOVQ out+32(FP), DI
	SHLQ $2, DX              // row stride in bytes

	MOVQ BX, R10             // row pointers
	MOVQ BX, R11
	ADDQ DX, R11
	MOVQ R11, R12
	ADDQ DX, R12
	MOVQ R12, R13
	ADDQ DX, R13

	XORPS X0, X0             // lane accumulators per row
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

	SHRQ  $2, CX             // n/4 vector steps
	TESTQ CX, CX
	JLE   dot4done

	PCALIGN $64
dot4loop:
	MOVUPS 0(SI), X4         // g[p..p+3]

	MOVUPS 0(R10), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 0(R11), X5
	MULPS  X4, X5
	ADDPS  X5, X1
	MOVUPS 0(R12), X5
	MULPS  X4, X5
	ADDPS  X5, X2
	MOVUPS 0(R13), X5
	MULPS  X4, X5
	ADDPS  X5, X3

	ADDQ $16, SI
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	DECQ CX
	JNZ  dot4loop

dot4done:
	// Reduce each accumulator as (l0+l2)+(l1+l3).
	MOVHLPS X0, X5           // X5[0,1] = X0[2,3]
	ADDPS   X0, X5           // [l0+l2, l1+l3, ...]
	MOVAPS  X5, X6
	SHUFPS  $0x55, X6, X6
	ADDSS   X6, X5
	MOVSS   X5, 0(DI)

	MOVHLPS X1, X5
	ADDPS   X1, X5
	MOVAPS  X5, X6
	SHUFPS  $0x55, X6, X6
	ADDSS   X6, X5
	MOVSS   X5, 4(DI)

	MOVHLPS X2, X5
	ADDPS   X2, X5
	MOVAPS  X5, X6
	SHUFPS  $0x55, X6, X6
	ADDSS   X6, X5
	MOVSS   X5, 8(DI)

	MOVHLPS X3, X5
	ADDPS   X3, X5
	MOVAPS  X5, X6
	SHUFPS  $0x55, X6, X6
	ADDSS   X6, X5
	MOVSS   X5, 12(DI)
	RET

// func kern8x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
//
// SSE2: 8 output rows × 4 columns from a [kk][8] packed A (packA), the
// 4-column edge tile of the 8-row groups. X0..X7 hold rows 0..7 and start
// at the broadcast bias; each step is one offset load, one B load, the two
// halves of A[p] and eight shuffle-multiply-adds, kern4x8's element order.
// PSHUFD broadcasts a lane into a fresh register in one instruction; it
// moves bits, so the lane is the float that was loaded.
TEXT ·kern8x4(SB), NOSPLIT, $0-57
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI
	MOVQ cn+48(FP), R9
	SHLQ $2, R9              // C row stride in bytes

	MOVUPS 0(R8), X9         // bias[0..3]
	MOVUPS 16(R8), X10       // bias[4..7]
	PSHUFD $0x00, X9, X0
	PSHUFD $0x55, X9, X1
	PSHUFD $0xAA, X9, X2
	PSHUFD $0xFF, X9, X3
	PSHUFD $0x00, X10, X4
	PSHUFD $0x55, X10, X5
	PSHUFD $0xAA, X10, X6
	PSHUFD $0xFF, X10, X7

	TESTQ CX, CX
	JLE   k8x4done

	PCALIGN $64
k8x4loop:
	MOVLQSX (DX), AX         // off[p]
	MOVUPS (BX)(AX*4), X8    // B[p][0..3]
	MOVUPS 0(SI), X9         // packed A[p][0..3]
	MOVUPS 16(SI), X10       // packed A[p][4..7]

	PSHUFD $0x00, X9, X11    // A[p][0]
	MULPS  X8, X11
	ADDPS  X11, X0
	PSHUFD $0x55, X9, X12    // A[p][1]
	MULPS  X8, X12
	ADDPS  X12, X1
	PSHUFD $0xAA, X9, X11    // A[p][2]
	MULPS  X8, X11
	ADDPS  X11, X2
	SHUFPS $0xFF, X9, X9     // A[p][3]
	MULPS  X8, X9
	ADDPS  X9, X3

	PSHUFD $0x00, X10, X11   // A[p][4]
	MULPS  X8, X11
	ADDPS  X11, X4
	PSHUFD $0x55, X10, X12   // A[p][5]
	MULPS  X8, X12
	ADDPS  X12, X5
	PSHUFD $0xAA, X10, X11   // A[p][6]
	MULPS  X8, X11
	ADDPS  X11, X6
	SHUFPS $0xFF, X10, X10   // A[p][7]
	MULPS  X8, X10
	ADDPS  X10, X7

	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k8x4loop

k8x4done:
	CMPB relu+56(FP), $0
	JEQ  k8x4store
	XORPS X8, X8
	MAXPS X8, X0             // accumulator first: NaN, −0 → +0
	MAXPS X8, X1
	MAXPS X8, X2
	MAXPS X8, X3
	MAXPS X8, X4
	MAXPS X8, X5
	MAXPS X8, X6
	MAXPS X8, X7

k8x4store:
	MOVUPS X0, (DI)
	ADDQ   R9, DI
	MOVUPS X1, (DI)
	ADDQ   R9, DI
	MOVUPS X2, (DI)
	ADDQ   R9, DI
	MOVUPS X3, (DI)
	ADDQ   R9, DI
	MOVUPS X4, (DI)
	ADDQ   R9, DI
	MOVUPS X5, (DI)
	ADDQ   R9, DI
	MOVUPS X6, (DI)
	ADDQ   R9, DI
	MOVUPS X7, (DI)
	RET

// func kern4x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
//
// SSE2: 4 output rows × 4 columns from a [kk][4] packed A, the 4-column
// edge tile of the 4-row groups. X0..X3 hold rows 0..3.
TEXT ·kern4x4(SB), NOSPLIT, $0-57
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI
	MOVQ cn+48(FP), R9
	SHLQ $2, R9              // C row stride in bytes

	MOVUPS 0(R8), X9         // bias[0..3]
	PSHUFD $0x00, X9, X0
	PSHUFD $0x55, X9, X1
	PSHUFD $0xAA, X9, X2
	PSHUFD $0xFF, X9, X3

	TESTQ CX, CX
	JLE   k4x4done

	PCALIGN $64
k4x4loop:
	MOVLQSX (DX), AX         // off[p]
	MOVUPS (BX)(AX*4), X8    // B[p][0..3]
	MOVUPS 0(SI), X9         // packed A[p][0..3]

	PSHUFD $0x00, X9, X11    // A[p][0]
	MULPS  X8, X11
	ADDPS  X11, X0
	PSHUFD $0x55, X9, X12    // A[p][1]
	MULPS  X8, X12
	ADDPS  X12, X1
	PSHUFD $0xAA, X9, X11    // A[p][2]
	MULPS  X8, X11
	ADDPS  X11, X2
	SHUFPS $0xFF, X9, X9     // A[p][3]
	MULPS  X8, X9
	ADDPS  X9, X3

	ADDQ $16, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k4x4loop

k4x4done:
	CMPB relu+56(FP), $0
	JEQ  k4x4store
	XORPS X8, X8
	MAXPS X8, X0             // accumulator first: NaN, −0 → +0
	MAXPS X8, X1
	MAXPS X8, X2
	MAXPS X8, X3

k4x4store:
	MOVUPS X0, (DI)
	ADDQ   R9, DI
	MOVUPS X1, (DI)
	ADDQ   R9, DI
	MOVUPS X2, (DI)
	ADDQ   R9, DI
	MOVUPS X3, (DI)
	RET

// func kern1x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool)
//
// SSE2: one output row × 4 columns, the 4-column edge tile of the single
// rows; a is the unpacked A row, as for kern1x8.
TEXT ·kern1x4(SB), NOSPLIT, $0-49
	MOVQ kk+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), DX
	MOVQ bias+32(FP), R8
	MOVQ c+40(FP), DI

	MOVSS  0(R8), X0         // broadcast bias
	SHUFPS $0x00, X0, X0

	TESTQ CX, CX
	JLE   k1x4done

	PCALIGN $64
k1x4loop:
	MOVSS  0(SI), X4         // broadcast a[p]
	SHUFPS $0x00, X4, X4
	MOVLQSX (DX), AX         // off[p]
	MOVUPS (BX)(AX*4), X8    // B[p][0..3]
	MULPS  X8, X4
	ADDPS  X4, X0

	ADDQ $4, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  k1x4loop

k1x4done:
	CMPB relu+48(FP), $0
	JEQ  k1x4store
	XORPS X8, X8
	MAXPS X8, X0             // accumulator first: NaN, −0 → +0

k1x4store:
	MOVUPS X0, (DI)
	RET

//go:build amd64 && !purego

// AVX2 per-block kernels of the encoder and decoder (kernels_amd64.go
// declares them; useAVX2, from cpu.AVX2, selects them). Each takes its Go
// twin's IEEE operations per coefficient or pixel in the same order, so no
// bit of a stream or a reconstruction can differ:
//
//   - reconstructAVX2 widens the prediction (VPMOVZXBD, VCVTDQ2PD), adds
//     the residual, clamps in double (VMAXPD 0, then VMINPD 255), adds 0.5
//     and truncates: clampAdd per lane. The clamp comes first because a
//     decoder's residual comes off the wire and can lie far outside int32,
//     where VCVTTPD2DQ would return 0x80000000.
//   - quantAVX2 divides by the step (VDIVPD, never a reciprocal multiply),
//     rounds half away from zero by truncation and a select (pixRowAVX2's
//     form, DESIGN.md "Bit-identity contract"), stores the int32 levels and
//     their dequantised values float64(level)*step, and returns the mask
//     of nonzero levels in raster order.
//   - residualAVX2 is src - pred for two blocks of bytes, subtracted as
//     int32 and widened to float64: exact, and +0 where they are equal, as
//     float64(s) - float64(p) is.
//
// Blocks are eight rows of eight bytes, row y at base + y*stride, so a byte
// block must span 7*stride+8 bytes; a stride of 0 repeats one row (a flat
// intra prediction). Every memory access is a VEX form, which takes
// unaligned operands; each kernel ends with VZEROUPPER, and each loop head
// is PCALIGN $64, so its speed does not follow the layout of the code
// linked before it.

#include "textflag.h"

// func reconstructAVX2(dst []uint8, ds int, pred []uint8, ps int, blk *[64]float64)
//   Y5: 0.5   Y6: 0   Y7: 255
TEXT ·reconstructAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ ds+24(FP), DX
	MOVQ pred_base+32(FP), SI
	MOVQ ps+56(FP), CX
	MOVQ blk+64(FP), BX
	MOVQ $0x3FE0000000000000, AX // 0.5
	VMOVQ AX, X5
	VBROADCASTSD X5, Y5
	VXORPD Y6, Y6, Y6
	MOVQ $0x406FE00000000000, AX // 255
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7
	MOVQ $8, AX                  // rows left

	PCALIGN $64
recon:
	VPMOVZXBD (SI), X0
	VPMOVZXBD 4(SI), X1
	VCVTDQ2PD X0, Y0
	VCVTDQ2PD X1, Y1
	VADDPD    (BX), Y0, Y0
	VADDPD    32(BX), Y1, Y1
	// Go operand order: Intel MAXPD v, 0 returns v only when v > 0, so -0
	// and everything below become +0; MINPD v, 255 caps at 255.
	VMAXPD      Y6, Y0, Y0
	VMAXPD      Y6, Y1, Y1
	VMINPD      Y7, Y0, Y0
	VMINPD      Y7, Y1, Y1
	VADDPD      Y5, Y0, Y0
	VADDPD      Y5, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPACKUSDW   X1, X0, X0
	VPACKUSWB   X0, X0, X0
	VMOVQ       X0, (DI)
	ADDQ DX, DI
	ADDQ CX, SI
	ADDQ $64, BX
	DECQ AX
	JNZ  recon
	VZEROUPPER
	RET

// func quantAVX2(freq, steps *[64]float64, q *[64]int32) uint64
//   Y5: 0.5   Y6: abs mask   Y7: sign mask   Y8: 1   Y9: 0
TEXT ·quantAVX2(SB), NOSPLIT, $0-32
	MOVQ freq+0(FP), SI
	MOVQ steps+8(FP), DI
	MOVQ q+16(FP), DX
	MOVQ $0x3FE0000000000000, AX // 0.5
	VMOVQ AX, X5
	VBROADCASTSD X5, Y5
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X6
	VBROADCASTSD X6, Y6
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7
	MOVQ $0x3FF0000000000000, AX // 1
	VMOVQ AX, X8
	VBROADCASTSD X8, Y8
	VXORPD Y9, Y9, Y9
	XORQ AX, AX                  // coefficient, and the mask's shift
	XORQ R8, R8                  // nonzero mask

	PCALIGN $64
quant:
	VMOVUPD   (SI)(AX*8), Y0
	VDIVPD    (DI)(AX*8), Y0, Y0 // r = freq/step
	VROUNDPD  $0x0B, Y0, Y1      // t = trunc(r)
	VSUBPD    Y1, Y0, Y2         // r - t, exact
	VANDPD    Y6, Y2, Y2
	VCMPPD    $0x1D, Y5, Y2, Y2  // |r - t| >= 0.5
	VANDPD    Y7, Y0, Y3
	VORPD     Y8, Y3, Y3         // copysign(1, r)
	VADDPD    Y3, Y1, Y3         // t + copysign(1, r)
	VBLENDVPD Y2, Y3, Y1, Y0     // math.Round(r)
	VCMPPD    $0x04, Y9, Y0, Y2  // != 0 (-0 is zero)
	VMOVMSKPD Y2, R9
	MOVQ      AX, CX
	SHLQ      CX, R9
	ORQ       R9, R8
	VCVTTPD2DQY Y0, X0           // the level, exact
	VMOVDQU   X0, (DX)(AX*4)
	VCVTDQ2PD X0, Y1
	VMULPD    (DI)(AX*8), Y1, Y1 // float64(level) * step
	VMOVUPD   Y1, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, $64
	JLT  quant
	MOVQ R8, ret+24(FP)
	VZEROUPPER
	RET

// func residualAVX2(src []uint8, ss int, pred []uint8, ps int, blk *[64]float64)
TEXT ·residualAVX2(SB), NOSPLIT, $0-72
	MOVQ src_base+0(FP), SI
	MOVQ ss+24(FP), DX
	MOVQ pred_base+32(FP), DI
	MOVQ ps+56(FP), CX
	MOVQ blk+64(FP), BX
	MOVQ $8, AX                  // rows left

	PCALIGN $64
resid:
	VPMOVZXBD (SI), X0
	VPMOVZXBD 4(SI), X1
	VPMOVZXBD (DI), X2
	VPMOVZXBD 4(DI), X3
	VPSUBD    X2, X0, X0
	VPSUBD    X3, X1, X1
	VCVTDQ2PD X0, Y0
	VCVTDQ2PD X1, Y1
	VMOVUPD   Y0, (BX)
	VMOVUPD   Y1, 32(BX)
	ADDQ DX, SI
	ADDQ CX, DI
	ADDQ $64, BX
	DECQ AX
	JNZ  resid
	VZEROUPPER
	RET

//go:build amd64 && !purego

// AVX2 row kernels of ResizeBilinearRows (resize_amd64.go installs them
// once, from cpu.AVX2). Each performs its Go twin's float64 operations per
// pixel in the same order — a separate VMULPD per product and one VADDPD,
// never FMA — so the bytes cannot differ. Both kernels run whole
// float64 vectors of four lanes (vlerpAVX2 two per step while it can) and
// finish a row's last len mod 4 pixels with the scalar VEX forms of the
// same instructions; no load or store leaves the slices they are given.
// Every memory access is a VEX form, which takes unaligned operands, and
// each kernel ends with VZEROUPPER. Every loop head is PCALIGN $64, so a
// loop's speed does not follow the layout of the code linked before it.

#include "textflag.h"

// func hlerpAVX2(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64)
//
// Pass 1 widens row into src (VPMOVZXBD + VCVTDQ2PD). Pass 2, per four
// output columns: VGATHERDPD the x0 and x1 taps from src (the mask
// register is consumed by the gather and re-armed each step), multiply by
// omfx and fx, add, store.
TEXT ·hlerpAVX2(SB), NOSPLIT, $0-168
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ src_base+24(FP), DI

	PCALIGN $64
widen4:
	CMPQ CX, $4
	JLT  widen1
	VPMOVZXBD (SI), X0       // 4 pixels -> 4 int32
	VCVTDQ2PD X0, Y0         // -> 4 float64, exact
	VMOVUPD   Y0, (DI)
	ADDQ $4, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  widen4

	PCALIGN $64
widen1:
	TESTQ CX, CX
	JEQ   lerp
	MOVBLZX (SI), AX
	VCVTSI2SDL AX, X0, X0
	VMOVSD X0, (DI)
	INCQ SI
	ADDQ $8, DI
	DECQ CX
	JMP  widen1

lerp:
	MOVQ src_base+24(FP), SI
	MOVQ x0_base+48(FP), R8
	MOVQ x1_base+72(FP), R9
	MOVQ omfx_base+96(FP), R10
	MOVQ fx_base+120(FP), R11
	MOVQ dst_base+144(FP), DI
	MOVQ dst_len+152(FP), CX
	XORQ AX, AX              // output column

	PCALIGN $64
lerp4:
	CMPQ CX, $4
	JLT  lerp1
	VMOVDQU (R8)(AX*4), X0   // x0[j..j+3]
	VMOVDQU (R9)(AX*4), X1   // x1[j..j+3]
	VPCMPEQD Y2, Y2, Y2      // gather mask: all lanes
	VGATHERDPD Y2, (SI)(X0*8), Y3 // a = src[x0]
	VPCMPEQD Y4, Y4, Y4
	VGATHERDPD Y4, (SI)(X1*8), Y5 // b = src[x1]
	VMULPD (R10)(AX*8), Y3, Y3    // a*(1-fx)
	VMULPD (R11)(AX*8), Y5, Y5    // b*fx
	VADDPD Y5, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  lerp4

	PCALIGN $64
lerp1:
	TESTQ CX, CX
	JEQ   hdone
	MOVLQSX (R8)(AX*4), BX
	VMOVSD  (SI)(BX*8), X3
	MOVLQSX (R9)(AX*4), DX
	VMOVSD  (SI)(DX*8), X5
	VMULSD  (R10)(AX*8), X3, X3
	VMULSD  (R11)(AX*8), X5, X5
	VADDSD  X5, X3, X3
	VMOVSD  X3, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  lerp1

hdone:
	VZEROUPPER
	RET

// func vlerpAVX2(top, bot []float64, omfy, fy float64, dst []uint8)
//
// v = top*(1-fy) + bot*fy, then clamp8: VMAXPD Yzero, Yv, Yv (Go operand
// order) is Intel MAXPD v, zero, which returns v only when v > 0; VMINPD
// caps at 255; +0.5 and VCVTTPD2DQ's truncation are uint8(v + 0.5). v is
// never NaN here (taps are bytes, weights in [0, 1]). The int32 lanes
// are narrowed with VPACKSSDW and VPACKUSWB (values are 0..255, so
// neither saturates): eight columns per step stored as one 64-bit word,
// then at most one step of four stored as a 32-bit word.
//   Y6: 1-fy   Y7: fy   Y8: 0   Y9: 255   Y10: 0.5
TEXT ·vlerpAVX2(SB), NOSPLIT, $0-88
	MOVQ top_base+0(FP), SI
	MOVQ bot_base+24(FP), BX
	VBROADCASTSD omfy+48(FP), Y6
	VBROADCASTSD fy+56(FP), Y7
	MOVQ dst_base+64(FP), DI
	MOVQ dst_len+72(FP), CX
	VXORPD Y8, Y8, Y8
	MOVQ $0x406FE00000000000, AX // 255.0
	VMOVQ AX, X9
	VBROADCASTSD X9, Y9
	MOVQ $0x3FE0000000000000, AX // 0.5
	VMOVQ AX, X10
	VBROADCASTSD X10, Y10
	XORQ AX, AX              // output column

	PCALIGN $64
vlerp8:
	CMPQ CX, $8
	JLT  vlerp4
	VMULPD (SI)(AX*8), Y6, Y0   // top*(1-fy), columns j..j+3
	VMULPD (BX)(AX*8), Y7, Y1   // bot*fy
	VMULPD 32(SI)(AX*8), Y6, Y2 // columns j+4..j+7
	VMULPD 32(BX)(AX*8), Y7, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VMAXPD Y8, Y0, Y0
	VMAXPD Y8, Y2, Y2
	VMINPD Y9, Y0, Y0
	VMINPD Y9, Y2, Y2
	VADDPD Y10, Y0, Y0
	VADDPD Y10, Y2, Y2
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y2, X2
	VPACKSSDW X2, X0, X0        // 8 int16: columns j..j+7
	VPACKUSWB X0, X0, X0
	VMOVQ X0, (DI)(AX*1)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  vlerp8

	PCALIGN $64
vlerp4:
	CMPQ CX, $4
	JLT  vlerp1
	VMULPD (SI)(AX*8), Y6, Y0 // top*(1-fy)
	VMULPD (BX)(AX*8), Y7, Y1 // bot*fy
	VADDPD Y1, Y0, Y0
	VMAXPD Y8, Y0, Y0
	VMINPD Y9, Y0, Y0
	VADDPD Y10, Y0, Y0
	VCVTTPD2DQY Y0, X0
	VPACKSSDW X0, X0, X0
	VPACKUSWB X0, X0, X0
	VMOVD X0, (DI)(AX*1)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  vlerp4

	PCALIGN $64
vlerp1:
	TESTQ CX, CX
	JEQ   vdone
	VMOVSD (SI)(AX*8), X0
	VMULSD X6, X0, X0
	VMOVSD (BX)(AX*8), X1
	VMULSD X7, X1, X1
	VADDSD X1, X0, X0
	VMAXSD X8, X0, X0
	VMINSD X9, X0, X0
	VADDSD X10, X0, X0
	VCVTTSD2SI X0, DX
	MOVB DX, (DI)(AX*1)
	INCQ AX
	DECQ CX
	JMP  vlerp1

vdone:
	VZEROUPPER
	RET

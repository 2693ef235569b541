//go:build amd64 && !purego

// AVX2 row kernel of the sub-pixel residual add (residual_amd64.go
// installs it once, from cpu.AVX2). It performs addRowGo's float32
// operations per pixel — r*255 rounded, added to the skip, the clamp,
// +0.5, truncation — so the bytes cannot differ. Eight lanes per step, the
// last len mod 8 pixels with the scalar VEX forms of the same
// instructions. Every residual is fetched at res[idx[j]], an index the
// caller built inside res, so the gather never leaves the slice; pixels
// are read and written only inside pix. Ends with VZEROUPPER. Both loop
// heads are PCALIGN $64, so their speed does not follow the layout of the
// code linked before them.

#include "textflag.h"

// func addRowAVX2(pix []uint8, res []float32, idx []int32)
//
// v = float32(pix) + res[idx]*255, then the seed's clamp: VMAXPS Yzero,
// Yv, Yv (Go operand order) is Intel MAXPS v, zero, which returns v only
// when v > 0 and the zero when either source is NaN, so NaN, -Inf and both
// zeros store 0; VMINPS Y255, Yv, Yv then caps +Inf and everything >= 255
// at 255; +0.5 and VCVTTPS2DQ's truncation are uint8(v + 0.5). With the
// MAXPS sources swapped a NaN would survive the max and the min would turn
// it into 255. The eight int32 lanes are narrowed with VPACKSSDW and
// VPACKUSWB (values are 0..255, so neither saturates).
//   Y8: 0   Y9: 255   Y10: 0.5
TEXT ·addRowAVX2(SB), NOSPLIT, $0-72
	MOVQ pix_base+0(FP), DI
	MOVQ pix_len+8(FP), CX
	MOVQ res_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	VXORPS Y8, Y8, Y8
	MOVL $0x437F0000, AX     // 255.0f
	VMOVD AX, X9
	VBROADCASTSS X9, Y9
	MOVL $0x3F000000, AX     // 0.5f
	VMOVD AX, X10
	VBROADCASTSS X10, Y10
	XORQ AX, AX              // pixel index

	PCALIGN $64
add8:
	CMPQ CX, $8
	JLT  add1
	VMOVDQU (R8)(AX*4), Y1   // idx[j..j+7]
	VPCMPEQD Y2, Y2, Y2      // gather mask: all lanes
	VGATHERDPS Y2, (SI)(Y1*4), Y3
	VMULPS Y9, Y3, Y3        // r*255
	VPMOVZXBD (DI)(AX*1), Y0 // 8 pixels -> 8 int32
	VCVTDQ2PS Y0, Y0         // exact
	VADDPS Y3, Y0, Y0
	VMAXPS Y8, Y0, Y0
	VMINPS Y9, Y0, Y0
	VADDPS Y10, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0     // 8 int16: lanes 0-3, then 4-7
	VPACKUSWB X0, X0, X0
	VMOVQ X0, (DI)(AX*1)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  add8

	PCALIGN $64
add1:
	TESTQ CX, CX
	JEQ   done
	MOVLQSX (R8)(AX*4), BX
	VMOVSS (SI)(BX*4), X3
	VMULSS X9, X3, X3
	MOVBLZX (DI)(AX*1), DX
	VCVTSI2SSL DX, X0, X0
	VADDSS X3, X0, X0
	VMAXSS X8, X0, X0
	VMINSS X9, X0, X0
	VADDSS X10, X0, X0
	VCVTTSS2SI X0, DX
	MOVB DX, (DI)(AX*1)
	INCQ AX
	DECQ CX
	JMP  add1

done:
	VZEROUPPER
	RET

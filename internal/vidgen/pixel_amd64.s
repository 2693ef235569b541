//go:build amd64 && !purego

// AVX2 row kernel of FrameAt's pixel body (pixel_amd64.go selects it once,
// from cpu.AVX2). Each lane takes pixRowGo's IEEE operations in its order:
// a separate VMULPD, VADDPD and VSUBPD per step of each octave's
// t*omy + b*wy - 0.5, never FMA; v/step as a VDIVPD, never a reciprocal
// multiply. Every memory access is a VEX form, which takes unaligned
// operands, and the kernel ends with VZEROUPPER. The loop head is
// PCALIGN $64, so its speed does not follow the layout of the code linked
// before it.

#include "go_asm.h"
#include "textflag.h"

// func pixRowAVX2(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes)
//
// Per four pixels:
//   - n1, n2 and the grain octave: VMULPD, VMULPD, VADDPD, VSUBPD 0.5.
//   - v = base + amp1*(|n1|*2 - 0.5)*warp + amp2*n2, |n1| by the abs mask.
//     (amp1*x and base+x are x*amp1 and x+base: IEEE multiply and add
//     commute.)
//   - math.Round(q), q = v/step, half away from zero: t = VROUNDPD $0x0B
//     (truncate); q - t is exact; where |q - t| >= 0.5 the result is
//     t + copysign(1, q), elsewhere t. That is a VBLENDVPD select, not an
//     add of a masked one: a q in (-0.5, -0] truncates to -0, and
//     -0 + (+0) would be +0 where math.Round keeps -0.
//   - the glyph toggle: VPMOVZXBQ widens on[x] to lanes, AND rowOn, compare
//     with 0; where set, v-90 if v > 127 else v+90, by two blends.
//   - + grain*g, VMAXPD 0 and VMINPD 255 (Go operand order: Intel MAXPD
//     v, 0 returns v only when v > 0, so -0 and negatives become +0, and
//     every v in range is kept), VCVTTPD2DQ truncates like uint8(v), and
//     VPACKUSDW/VPACKUSWB narrow 0..255 without saturating.
//
//   Y5: 0.5   Y6: abs mask   Y7: sign mask   Y8: 1   Y9: 2
//   Y10: 127  Y11: 90        Y12: 0          Y13: 255
TEXT ·pixRowAVX2(SB), NOSPLIT, $0-200
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ on_base+24(FP), SI
	MOVQ t1_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ t2_base+96(FP), R10
	MOVQ b2_base+120(FP), R11
	MOVQ tG_base+144(FP), R12
	MOVQ bG_base+168(FP), R13
	MOVQ k+192(FP), DX
	ANDQ $~3, CX
	JEQ  done

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
	MOVQ $0x4000000000000000, AX // 2
	VMOVQ AX, X9
	VBROADCASTSD X9, Y9
	MOVQ $0x405FC00000000000, AX // 127
	VMOVQ AX, X10
	VBROADCASTSD X10, Y10
	MOVQ $0x4056800000000000, AX // 90
	VMOVQ AX, X11
	VBROADCASTSD X11, Y11
	VXORPD Y12, Y12, Y12
	MOVQ $0x406FE00000000000, AX // 255
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13
	XORQ AX, AX                  // pixel

	PCALIGN $64
loop:
	// n1 = t1*omy1 + b1*wy1 - 0.5
	VMOVUPD (R8)(AX*8), Y0
	VMULPD  pixLanes_omy1(DX), Y0, Y0
	VMOVUPD (R9)(AX*8), Y1
	VMULPD  pixLanes_wy1(DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	VSUBPD  Y5, Y0, Y0
	// n2 = t2*omy2 + b2*wy2 - 0.5
	VMOVUPD (R10)(AX*8), Y1
	VMULPD  pixLanes_omy2(DX), Y1, Y1
	VMOVUPD (R11)(AX*8), Y2
	VMULPD  pixLanes_wy2(DX), Y2, Y2
	VADDPD  Y2, Y1, Y1
	VSUBPD  Y5, Y1, Y1
	// v = base + amp1*(|n1|*2 - 0.5)*warp + amp2*n2
	VANDPD  Y6, Y0, Y0
	VMULPD  Y9, Y0, Y0
	VSUBPD  Y5, Y0, Y0
	VMULPD  pixLanes_amp1(DX), Y0, Y0
	VMULPD  pixLanes_warp(DX), Y0, Y0
	VADDPD  pixLanes_base(DX), Y0, Y0
	VMULPD  pixLanes_amp2(DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	// v = math.Round(v/step) * step
	VDIVPD    pixLanes_step(DX), Y0, Y0 // q
	VROUNDPD  $0x0B, Y0, Y1             // t = trunc(q)
	VSUBPD    Y1, Y0, Y2                // q - t
	VANDPD    Y6, Y2, Y2
	VCMPPD    $0x1D, Y5, Y2, Y2         // |q - t| >= 0.5
	VANDPD    Y7, Y0, Y3
	VORPD     Y8, Y3, Y3                // copysign(1, q)
	VADDPD    Y3, Y1, Y3                // t + copysign(1, q)
	VBLENDVPD Y2, Y3, Y1, Y0
	VMULPD    pixLanes_step(DX), Y0, Y0
	// glyph toggle where on[x]&rowOn != 0
	VPMOVZXBQ (SI)(AX*1), Y1
	VPAND     pixLanes_rowOn(DX), Y1, Y1
	VPCMPEQQ  Y12, Y1, Y1               // on[x]&rowOn == 0
	VCMPPD    $0x1E, Y10, Y0, Y2        // v > 127
	VSUBPD    Y11, Y0, Y3               // v - 90
	VADDPD    Y11, Y0, Y4               // v + 90
	VBLENDVPD Y2, Y3, Y4, Y3
	VBLENDVPD Y1, Y0, Y3, Y0
	// v += grain * (tG*omyG + bG*wyG - 0.5)
	VMOVUPD (R12)(AX*8), Y1
	VMULPD  pixLanes_omyG(DX), Y1, Y1
	VMOVUPD (R13)(AX*8), Y2
	VMULPD  pixLanes_wyG(DX), Y2, Y2
	VADDPD  Y2, Y1, Y1
	VSUBPD  Y5, Y1, Y1
	VMULPD  pixLanes_grain(DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	// clamp to [0, 255], truncate, store four bytes
	VMAXPD      Y12, Y0, Y0
	VMINPD      Y13, Y0, Y0
	VCVTTPD2DQY Y0, X0
	VPACKUSDW   X0, X0, X0
	VPACKUSWB   X0, X0, X0
	VMOVD       X0, (DI)(AX*1)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER

done:
	RET

// func pixRowAVX512(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes)
//
// pixRowAVX2's lanes eight wide, over the whole row: every step loads
// under the opmask K1, all ones but in the last step of a row whose length
// is not a multiple of eight, where it holds the remaining pixels, so no
// load touches and no store writes past a slice (masked-out elements of an
// EVEX load or store never fault). The frame's and the row's scalars come
// from pixLanes as embedded broadcasts (.BCST); the constants sit in
// registers. Per eight pixels, the AVX2 kernel's steps but three:
//   - math.Round's half-away select: K2 = |q - t| >= 0.5, then a VADDPD
//     of copysign(1, q) to t merge-masked by K2. A lane outside K2 keeps t
//     itself, so a q in (-0.5, -0] still rounds to -0.
//   - the glyph toggle: K3 = on[x]&rowOn != 0 (VPTESTMQ), K4 = v > 127;
//     v-90 under K3 & K4 (KANDW), v+90 under K3 &^ K4 (KANDNW), each a
//     merge-masked VSUBPD or VADDPD.
//   - the store: VCVTTPD2DQ, then VPMOVDB narrows the eight int32 (each
//     in 0..255) to bytes and stores them under K1.
//
//   Z5: 0.5   Z6: abs mask   Z7: sign mask   Z8: 1   Z9: 2
//   Z10: 127  Z11: 90        Z12: 0          Z13: 255
TEXT ·pixRowAVX512(SB), NOSPLIT, $0-200
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), R14
	MOVQ on_base+24(FP), SI
	MOVQ t1_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ t2_base+96(FP), R10
	MOVQ b2_base+120(FP), R11
	MOVQ tG_base+144(FP), R12
	MOVQ bG_base+168(FP), R13
	MOVQ k+192(FP), DX
	TESTQ R14, R14
	JEQ   done

	MOVQ $0x3FE0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z5
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z6
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z7
	MOVQ $0x3FF0000000000000, AX // 1
	VPBROADCASTQ AX, Z8
	MOVQ $0x4000000000000000, AX // 2
	VPBROADCASTQ AX, Z9
	MOVQ $0x405FC00000000000, AX // 127
	VPBROADCASTQ AX, Z10
	MOVQ $0x4056800000000000, AX // 90
	VPBROADCASTQ AX, Z11
	VPXORQ Z12, Z12, Z12
	MOVQ $0x406FE00000000000, AX // 255
	VPBROADCASTQ AX, Z13
	XORQ AX, AX                  // pixel
	MOVL $0xFF, BX               // K1: eight lanes, or the row's length
	MOVQ R14, CX
	CMPQ CX, $8
	JAE  mask8
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
mask8:
	KMOVW BX, K1

	PCALIGN $64
loop:
	// n1 = t1*omy1 + b1*wy1 - 0.5
	VMOVUPD.Z   (R8)(AX*8), K1, Z0
	VMULPD.BCST pixLanes_omy1(DX), Z0, Z0
	VMOVUPD.Z   (R9)(AX*8), K1, Z1
	VMULPD.BCST pixLanes_wy1(DX), Z1, Z1
	VADDPD      Z1, Z0, Z0
	VSUBPD      Z5, Z0, Z0
	// n2 = t2*omy2 + b2*wy2 - 0.5
	VMOVUPD.Z   (R10)(AX*8), K1, Z1
	VMULPD.BCST pixLanes_omy2(DX), Z1, Z1
	VMOVUPD.Z   (R11)(AX*8), K1, Z2
	VMULPD.BCST pixLanes_wy2(DX), Z2, Z2
	VADDPD      Z2, Z1, Z1
	VSUBPD      Z5, Z1, Z1
	// v = base + amp1*(|n1|*2 - 0.5)*warp + amp2*n2
	VANDPD      Z6, Z0, Z0
	VMULPD      Z9, Z0, Z0
	VSUBPD      Z5, Z0, Z0
	VMULPD.BCST pixLanes_amp1(DX), Z0, Z0
	VMULPD.BCST pixLanes_warp(DX), Z0, Z0
	VADDPD.BCST pixLanes_base(DX), Z0, Z0
	VMULPD.BCST pixLanes_amp2(DX), Z1, Z1
	VADDPD      Z1, Z0, Z0
	// v = math.Round(v/step) * step
	VDIVPD.BCST pixLanes_step(DX), Z0, Z0 // q
	VRNDSCALEPD $0x0B, Z0, Z1             // t = trunc(q)
	VSUBPD      Z1, Z0, Z2                // q - t
	VANDPD      Z6, Z2, Z2
	VCMPPD      $0x1D, Z5, Z2, K2         // |q - t| >= 0.5
	VANDPD      Z7, Z0, Z3
	VORPD       Z8, Z3, Z3                // copysign(1, q)
	VADDPD      Z3, Z1, K2, Z1            // t + copysign(1, q) under K2
	VMULPD.BCST pixLanes_step(DX), Z1, Z0
	// glyph toggle where on[x]&rowOn != 0
	VPMOVZXBQ.Z   (SI)(AX*1), K1, Z1
	VPTESTMQ.BCST pixLanes_rowOn(DX), Z1, K3 // on[x]&rowOn != 0
	VCMPPD        $0x1E, Z10, Z0, K4         // v > 127
	KANDW         K3, K4, K5                 // toggle, v > 127
	KANDNW        K3, K4, K6                 // toggle, v <= 127
	VSUBPD        Z11, Z0, K5, Z0            // v - 90
	VADDPD        Z11, Z0, K6, Z0            // v + 90
	// v += grain * (tG*omyG + bG*wyG - 0.5)
	VMOVUPD.Z   (R12)(AX*8), K1, Z1
	VMULPD.BCST pixLanes_omyG(DX), Z1, Z1
	VMOVUPD.Z   (R13)(AX*8), K1, Z2
	VMULPD.BCST pixLanes_wyG(DX), Z2, Z2
	VADDPD      Z2, Z1, Z1
	VSUBPD      Z5, Z1, Z1
	VMULPD.BCST pixLanes_grain(DX), Z1, Z1
	VADDPD      Z1, Z0, Z0
	// clamp to [0, 255], truncate, store eight bytes under K1
	VMAXPD     Z12, Z0, Z0
	VMINPD     Z13, Z0, Z0
	VCVTTPD2DQ Z0, Y0
	VPMOVDB    Y0, K1, (DI)(AX*1)
	ADDQ $8, AX
	MOVQ R14, CX
	SUBQ AX, CX                  // pixels left
	JLE  end
	CMPQ CX, $8
	JAE  loop
	MOVL $1, BX                  // a last, partial step
	SHLL CX, BX
	DECL BX
	KMOVW BX, K1
	JMP  loop

end:
	VZEROUPPER

done:
	RET

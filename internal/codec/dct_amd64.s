//go:build amd64 && !purego

// AVX2 8x8 transforms (fdct8 and idct8 call them when useAVX2, which init
// sets from cpu.AVX2).
// Each 2-D transform is two 8x8 matrix products out = A·M, one per pass of
// the separable transform:
//
//	fdct8AVX2: tmp = src·dctBasisT, dst = dctBasis·tmp
//	idct8AVX2: tmp = dctBasisT·src, dst = tmp·dctBasis
//
// which are dct1d's row and column passes with the output laid out the
// same way. An output row is two float64 vectors of four lanes, and every
// lane is out[r][c] = Σ_i A[r][i]*M[i][c], accumulated from +0 in ascending
// i with one VMULPD and one VADDPD per tap, no FMA: the textbook loop's
// IEEE operations per element, in its order. Unlike dct1d, no tap is
// skipped when its input is ±0; its product is ±0, and adding ±0 to a sum
// that started at +0 (and so is never -0) changes nothing, so the result
// is the same bit for bit. tmp lives in the kernel's 512-byte frame; every
// load is an unaligned VEX form, and each kernel ends with VZEROUPPER.
// Neither has a loop; each body starts PCALIGN $64, so its fetch does not
// follow the layout of the code linked before it.

#include "textflag.h"

// TAP(i) adds tap i to the four output rows held in Y0..Y7 (row r in
// Y(2r), Y(2r+1)): Y8, Y9 = M[i][0:8] (M at R9), and each A[r][i] (A at R8,
// rows 64 bytes apart) broadcast and multiplied into both halves.
#define TAP(i) \
	VMOVUPD      i*64(R9), Y8; \
	VMOVUPD      i*64+32(R9), Y9; \
	VBROADCASTSD i*8(R8), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y0, Y0; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y1, Y1; \
	VBROADCASTSD 64+i*8(R8), Y13; \
	VMULPD       Y8, Y13, Y14; \
	VADDPD       Y14, Y2, Y2; \
	VMULPD       Y9, Y13, Y15; \
	VADDPD       Y15, Y3, Y3; \
	VBROADCASTSD 128+i*8(R8), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y4, Y4; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y5, Y5; \
	VBROADCASTSD 192+i*8(R8), Y13; \
	VMULPD       Y8, Y13, Y14; \
	VADDPD       Y14, Y6, Y6; \
	VMULPD       Y9, Y13, Y15; \
	VADDPD       Y15, Y7, Y7

// HALF computes four output rows: Y0..Y7 from +0, taps 0..7 in order, then
// stored at R10.
#define HALF \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	TAP(0); \
	TAP(1); \
	TAP(2); \
	TAP(3); \
	TAP(4); \
	TAP(5); \
	TAP(6); \
	TAP(7); \
	VMOVUPD Y0, 0(R10); \
	VMOVUPD Y1, 32(R10); \
	VMOVUPD Y2, 64(R10); \
	VMOVUPD Y3, 96(R10); \
	VMOVUPD Y4, 128(R10); \
	VMOVUPD Y5, 160(R10); \
	VMOVUPD Y6, 192(R10); \
	VMOVUPD Y7, 224(R10)

// MATMUL computes out = A·M for A at R8, M at R9, out at R10: rows 0-3,
// then rows 4-7 (A and out advance 256 bytes, M stays).
#define MATMUL \
	HALF; \
	ADDQ $256, R8; \
	ADDQ $256, R10; \
	HALF

// func fdct8AVX2(src, dst *[64]float64)
TEXT ·fdct8AVX2(SB), $512-16
	PCALIGN $64
	MOVQ src+0(FP), R8
	LEAQ ·dctBasisT(SB), R9
	LEAQ 0(SP), R10          // tmp
	MATMUL
	LEAQ ·dctBasis(SB), R8
	LEAQ 0(SP), R9
	MOVQ dst+8(FP), R10
	MATMUL
	VZEROUPPER
	RET

// func idct8AVX2(src, dst *[64]float64)
TEXT ·idct8AVX2(SB), $512-16
	PCALIGN $64
	LEAQ ·dctBasisT(SB), R8
	MOVQ src+0(FP), R9
	LEAQ 0(SP), R10          // tmp
	MATMUL
	LEAQ 0(SP), R8
	LEAQ ·dctBasis(SB), R9
	MOVQ dst+8(FP), R10
	MATMUL
	VZEROUPPER
	RET

//go:build amd64 && !purego

// AVX-512 kernel of octave.fill (pixel_amd64.go declares it; fill selects
// it when pixAVX512 and octave.plan found the row's columns fit its
// window). It computes fillGo's values with the same IEEE operations, no
// FMA: each lattice point's hash is integer arithmetic, exact in any
// order, its conversion float64(h>>11) is exact (h>>11 < 2^53) and the
// scaling by 2^-53 is exact, as fillGo's division by 2^53 is; each pixel
// is float64(v0*omx) + float64(v1*wx), a VMULPD each and a VADDPD. Loop
// heads are PCALIGN $64, and the kernel ends with VZEROUPPER.

#include "textflag.h"

// j·0x9e3779b97f4a7c15 mod 2^64 for the lanes j = 0..7: the hash input's
// product for eight consecutive lattice columns, less the first's.
DATA hashLanes<>+0(SB)/8, $0x0000000000000000
DATA hashLanes<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA hashLanes<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA hashLanes<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA hashLanes<>+32(SB)/8, $0x78dde6e5fd29f054
DATA hashLanes<>+40(SB)/8, $0x1715609f7c746c69
DATA hashLanes<>+48(SB)/8, $0xb54cda58fbbee87e
DATA hashLanes<>+56(SB)/8, $0x538454127b096493
GLOBL hashLanes<>(SB), RODATA|NOPTR, $64

// func fillAVX512(dst []float64, ix []int64, omx, wx, lat []float64, n int, k uint64)
//
// Pass 1 hashes lattice columns ix[0] .. ix[0]+n-1 of the row whose rowKey
// is k into lat[0:n], eight per step (whole steps: lat holds n+16).
// hashAt's uint64(x)*0x9e3779b97f4a7c15 steps by 8·0x9e3779b97f4a7c15 mod
// 2^64 from one step to the next; splitMix64 is VPADDQ, VPSRLQ, VPXORQ and
// VPMULLQ; float64(h>>11)/2^53 is VCVTUQQ2PD and a VMULPD by 2^-53.
//
// Pass 2, per eight pixels from x: the sixteen lattice values from
// lat[ix[x]-ix[0]] on (ix[x+7]+1 - ix[x] <= 15, as plan checked) in two
// registers; each lane's v0 and v1 are VPERMI2PD by ix - ix[x] and by one
// more. The loads and the store run under K1, all ones but in the row's
// last step if its length is not a multiple of eight.
TEXT ·fillAVX512(SB), NOSPLIT, $0-136
	MOVQ ix_base+24(FP), SI
	MOVQ (SI), R12               // ix[0]
	MOVQ lat_base+96(FP), DI
	MOVQ n+120(FP), CX
	MOVQ $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z3          // splitMix64's increment, and hashAt's factor
	MOVQ R12, BX
	IMULQ AX, BX
	VPBROADCASTQ BX, Z0
	VPADDQ hashLanes<>(SB), Z0, Z0 // uint64(ix[0]+j)*factor
	SHLQ $3, AX
	VPBROADCASTQ AX, Z1          // 8*factor
	VPBROADCASTQ k+128(FP), Z2
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z4
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z5
	MOVQ $0x3CA0000000000000, AX // 2^-53
	VPBROADCASTQ AX, Z6
	XORQ AX, AX

	PCALIGN $64
hash:
	VPXORQ     Z2, Z0, Z7        // x*factor ^ k
	VPADDQ     Z3, Z7, Z7
	VPSRLQ     $30, Z7, Z8
	VPXORQ     Z8, Z7, Z7
	VPMULLQ    Z4, Z7, Z7
	VPSRLQ     $27, Z7, Z8
	VPXORQ     Z8, Z7, Z7
	VPMULLQ    Z5, Z7, Z7
	VPSRLQ     $31, Z7, Z8
	VPXORQ     Z8, Z7, Z7
	VPSRLQ     $11, Z7, Z7
	VCVTUQQ2PD Z7, Z7
	VMULPD     Z6, Z7, Z7
	VMOVUPD    Z7, (DI)(AX*8)
	VPADDQ     Z1, Z0, Z0
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  hash

	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R14
	MOVQ omx_base+48(FP), R9
	MOVQ wx_base+72(FP), R10
	MOVQ lat_base+96(FP), R11
	TESTQ R14, R14
	JEQ   end
	MOVL $1, AX
	VPBROADCASTQ AX, Z9          // 1
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
lerp:
	MOVQ (SI)(AX*8), BX          // ix[x]
	MOVQ BX, CX
	SUBQ R12, CX                 // its entry in lat
	VMOVUPD   (R11)(CX*8), Z10
	VMOVUPD   64(R11)(CX*8), Z11
	VMOVDQU64.Z (SI)(AX*8), K1, Z12
	VPBROADCASTQ BX, Z13
	VPSUBQ    Z13, Z12, Z12      // ix - ix[x]
	VPADDQ    Z9, Z12, Z14       // ix+1 - ix[x]
	VPERMI2PD Z11, Z10, Z12      // v0
	VPERMI2PD Z11, Z10, Z14      // v1
	VMOVUPD.Z (R9)(AX*8), K1, Z15
	VMULPD    Z15, Z12, Z12      // v0*omx
	VMOVUPD.Z (R10)(AX*8), K1, Z15
	VMULPD    Z15, Z14, Z14      // v1*wx
	VADDPD    Z14, Z12, Z12
	VMOVUPD   Z12, K1, (DI)(AX*8)
	ADDQ $8, AX
	MOVQ R14, CX
	SUBQ AX, CX                  // pixels left
	JLE  end
	CMPQ CX, $8
	JAE  lerp
	MOVL $1, BX                  // a last, partial step
	SHLL CX, BX
	DECL BX
	KMOVW BX, K1
	JMP  lerp

end:
	VZEROUPPER
	RET

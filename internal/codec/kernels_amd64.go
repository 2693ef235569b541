//go:build amd64 && !purego

package codec

import "livenas/internal/cpu"

// sad8x8SSE2 is sad8x8Go in SSE2: two rows per XMM (MOVQ + MOVHPS) and one
// PSADBW per row pair.
//
//go:noescape
func sad8x8SSE2(cur []uint8, cs int, ref []uint8, rs int) int

// intraSAD8x8SSE2 is intraSAD8x8Go in SSE2: per row pair,
// PSADBW(PMAXUB(p, ce), ce) + PSADBW(PMINUB(p, fl), fl).
//
//go:noescape
func intraSAD8x8SSE2(cur []uint8, cs int, fl, ce int) int

// fdct8AVX2 is fdct8Go in AVX2: the row pass is src·dctBasisT and the column
// pass dctBasis·tmp, each output row two float64 vectors of four lanes
// summed over ascending taps from +0 with a VMULPD then a VADDPD, no FMA.
//
//go:noescape
func fdct8AVX2(src, dst *[64]float64)

// idct8AVX2 is idct8Go in AVX2: the column pass is dctBasisT·src and the
// row pass tmp·dctBasis, with fdct8AVX2's per-lane accumulation.
//
//go:noescape
func idct8AVX2(src, dst *[64]float64)

// reconstructAVX2 is reconstructGo in AVX2, a row of eight pixels per step.
//
//go:noescape
func reconstructAVX2(dst []uint8, ds int, pred []uint8, ps int, blk *[64]float64)

// quantAVX2 is quantiseGo in AVX2, four coefficients per step.
//
//go:noescape
func quantAVX2(freq, steps *[64]float64, q *[64]int32) uint64

// residualAVX2 is residualGo in AVX2, a row of eight pixels per step.
//
//go:noescape
func residualAVX2(src []uint8, ss int, pred []uint8, ps int, blk *[64]float64)

func init() {
	useSSE2 = true
	useAVX2 = cpu.AVX2
}

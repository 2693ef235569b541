//go:build !amd64 || purego

package codec

// These builds have no vector kernels: useSSE2 and useAVX2 stay false, and
// the names below only satisfy the dispatching wrappers.

func sad8x8SSE2(cur []uint8, cs int, ref []uint8, rs int) int { return sad8x8Go(cur, cs, ref, rs) }

func intraSAD8x8SSE2(cur []uint8, cs int, fl, ce int) int { return intraSAD8x8Go(cur, cs, fl, ce) }

func fdct8AVX2(src, dst *[64]float64) { fdct8Go(src, dst) }

func idct8AVX2(src, dst *[64]float64) { idct8Go(src, dst) }

func reconstructAVX2(dst []uint8, ds int, pred []uint8, ps int, blk *[64]float64) {
	reconstructGo(dst, ds, pred, ps, blk)
}

func quantAVX2(freq, steps *[64]float64, q *[64]int32) uint64 { return quantiseGo(freq, steps, q) }

func residualAVX2(src []uint8, ss int, pred []uint8, ps int, blk *[64]float64) {
	residualGo(src, ss, pred, ps, blk)
}

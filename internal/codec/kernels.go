package codec

import "math"

// The per-block kernels of the encoder and decoder. Each reads and writes
// blocks as eight rows of eight, row y at base + y*stride, so a byte block
// must span at least 7*stride+8 bytes (the callers slice it to exactly
// that, blockAt); a stride of 0 repeats one row, a flat intra prediction.
// Each has a Go twin below (the loop it replaced) and a vector form in
// sad_amd64.s and block_amd64.s, chosen by a flag set once at init: a call
// through a function value would move the callers' block buffers to the
// heap. The two compute the same integers and the same IEEE operations in
// the same order, so the choice cannot change a bit of any stream
// (DESIGN.md "Session hot path").
var (
	// useSSE2 selects the SSE2 cost kernels, sad8x8SSE2 and
	// intraSAD8x8SSE2. SSE2 is baseline amd64, so init (kernels_amd64.go)
	// sets it there without a probe.
	useSSE2 bool
	// useAVX2 selects the AVX2 transforms (fdct8AVX2, idct8AVX2) and block
	// kernels (reconstructAVX2, quantAVX2, residualAVX2). init sets it from
	// cpu.AVX2.
	useAVX2 bool
)

// sad8x8 returns Σ|cur − ref| over an 8x8 block.
func sad8x8(cur []uint8, cs int, ref []uint8, rs int) int {
	if useSSE2 {
		return sad8x8SSE2(cur, cs, ref, rs)
	}
	return sad8x8Go(cur, cs, ref, rs)
}

// intraSAD8x8 returns Σ max(p−ce, 0) + max(fl−p, 0) over an 8x8 block:
// for a prediction pred with fl = ⌊pred⌋ and ce = ⌈pred⌉ that is
// Σ int(|p − pred|), the truncated float distance (see intraSAD). fl and ce
// must lie in 0..255.
func intraSAD8x8(cur []uint8, cs int, fl, ce int) int {
	if useSSE2 {
		return intraSAD8x8SSE2(cur, cs, fl, ce)
	}
	return intraSAD8x8Go(cur, cs, fl, ce)
}

// reconstruct writes prediction plus residual, clampAdd per pixel, into the
// 8x8 block dst.
func reconstruct(dst []uint8, ds int, pred []uint8, ps int, blk *[64]float64) {
	if useAVX2 {
		reconstructAVX2(dst, ds, pred, ps, blk)
		return
	}
	reconstructGo(dst, ds, pred, ps, blk)
}

// quantise rounds freq/step to the nearest level, half away from zero, for
// every coefficient: it stores the levels in q and their dequantised values
// float64(level)*step in place of freq, and returns the mask of nonzero
// levels, bit i for raster position i. Every ratio must lie inside int32,
// as every encoder's does (|freq| <= 8*255 and every step >= 1.5).
func quantise(freq, steps *[64]float64, q *[64]int32) uint64 {
	if useAVX2 {
		return quantAVX2(freq, steps, q)
	}
	return quantiseGo(freq, steps, q)
}

// residual writes src − pred into blk as float64 for the two 8x8 blocks.
func residual(src []uint8, ss int, pred []uint8, ps int, blk *[64]float64) {
	if useAVX2 {
		residualAVX2(src, ss, pred, ps, blk)
		return
	}
	residualGo(src, ss, pred, ps, blk)
}

func sad8x8Go(cur []uint8, cs int, ref []uint8, rs int) int {
	var sad int
	for y := 0; y < blockSize; y++ {
		c := cur[y*cs:][:blockSize]
		r := ref[y*rs:][:blockSize]
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

func intraSAD8x8Go(cur []uint8, cs int, fl, ce int) int {
	var sad int
	for y := 0; y < blockSize; y++ {
		for _, p := range cur[y*cs:][:blockSize] {
			sad += max(int(p)-ce, 0) + max(fl-int(p), 0)
		}
	}
	return sad
}

func reconstructGo(dst []uint8, ds int, pred []uint8, ps int, blk *[64]float64) {
	for y := 0; y < blockSize; y++ {
		d := dst[y*ds:][:blockSize]
		p := pred[y*ps:][:blockSize]
		for x := range d {
			d[x] = clampAdd(p[x], blk[y*blockSize+x])
		}
	}
}

func quantiseGo(freq, steps *[64]float64, q *[64]int32) uint64 {
	var nz uint64
	for i, step := range steps {
		var v int32
		// A ratio inside (-0.5, 0.5) rounds to zero; most do, and skip the
		// math.Round call.
		if r := freq[i] / step; r <= -0.5 || r >= 0.5 {
			v = int32(math.Round(r))
			nz |= 1 << i
		}
		q[i] = v
		freq[i] = float64(v) * step
	}
	return nz
}

func residualGo(src []uint8, ss int, pred []uint8, ps int, blk *[64]float64) {
	for y := 0; y < blockSize; y++ {
		s := src[y*ss:][:blockSize]
		p := pred[y*ps:][:blockSize]
		for x, v := range s {
			blk[y*blockSize+x] = float64(v) - float64(p[x])
		}
	}
}

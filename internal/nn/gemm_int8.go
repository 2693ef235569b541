package nn

// Int8 GEMM for the quantized inference fast path (see quant.go for the
// quantization scheme). The matrices are int8 values carried in int16
// containers: widening to int16 at quantization time costs one copy, and in
// exchange the micro-kernel is a pure PMADDWD pipeline — each pmaddwd
// multiplies eight int16 pairs and adds adjacent products into four int32
// lanes, so two taps per output element cost one instruction and the
// accumulation is exact integer arithmetic. Exact accumulation means every
// variant (AVX2, SSE2, generic Go) produces identical bits by construction;
// there is no float ordering contract to maintain, only correctness.
//
// Layouts:
//
//   - B is implicit, as in the f32 engine (im2col.go): the row block's
//     zero-bordered int16 copy read through a table of kkEven tap offsets,
//     B[p][j] = b[off[p]+j] inside one output row. When inC·k·k is odd the
//     table's last (pad) entry is 0: that tap's quantized weight is 0, so
//     whatever it reads adds an exact 0. Tap pair (2p, 2p+1) is two runs
//     at off[2p] and off[2p+1]; the vector kernels interleave them
//     in-register (punpcklwd/punpckhwd) rather than paying a scattered
//     pack on the B side.
//   - A (weights) comes in two forms: wq is plain row-major int16
//     [outC][kkEven] for the scalar edges, and wqPack holds 4-row blocks
//     pre-interleaved as [kk2][4 channels][2 taps] so the kernel can
//     broadcast one channel's tap pair as a single 32-bit load.
//   - C is the int32 accumulator panel, outC rows × accStride columns.
//
// Overflow: a tap product is ≤ 127² and kkEven ≤ a few hundred for this
// model family, so the int32 accumulator has >2⁷ headroom; the int16
// intermediate of pmaddwd (pair sum ≤ 2·127² < 2¹⁵) never saturates.

// qkernTile, when non-nil, computes a 4-row × qkernTileCols-column C tile:
// qkernTile(kk2, a, b, off, c, cn) with a = one wqPack block, b = the
// tile's first column in its output row's block row, off = the 2·kk2 tap
// offsets, cn = the element stride of C. Set by the amd64 init (AVX2 4×16
// or SSE2 4×8); nil elsewhere, routing everything through the scalar path.
var qkernTile func(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)

// qkernTileCols is qkernTile's column tile width (0 when qkernTile is nil).
var qkernTileCols int

// gemmInt8Conv computes, for oc < outC, y < rows and x < w,
//
//	c[oc*accStride + y*w + x] = Σ_p wq[oc*kkEven+p] * b[off[p] + y*bs + x]
//
// with kkEven = len(off) and b rows bs apart. wqPack holds the
// pair-interleaved 4-row blocks for the first outC&^3 rows (may be empty
// when outC < 4). Bias and scale handling live in the float epilogue
// (requantReLU/dequantInto), not here: the accumulator is exact.
func gemmInt8Conv(wq, wqPack []int16, b []int16, off []int32, outC, rows, w, bs int, c []int32, accStride int) {
	kk2 := len(off) / 2
	m4 := outC &^ 3
	wv := 0
	if qkernTileCols > 0 {
		wv = w &^ (qkernTileCols - 1)
	}
	for oc := 0; oc < m4; oc += 4 {
		ap := wqPack[(oc/4)*kk2*8:]
		for y := 0; y < rows; y++ {
			brow, crow := b[y*bs:], c[oc*accStride+y*w:]
			for x := 0; x < wv; x += qkernTileCols {
				qkernTile(kk2, &ap[0], &brow[x], &off[0], &crow[x], accStride)
			}
			qgemmScalar(wq, brow, off, oc, oc+4, wv, w, c[y*w:], accStride)
		}
	}
	if m4 < outC {
		for y := 0; y < rows; y++ {
			qgemmScalar(wq, b[y*bs:], off, m4, outC, 0, w, c[y*w:], accStride)
		}
	}
}

// qgemmScalar is the portable int8 GEMM path: rows [oc0, oc1), columns
// [x0, x1) of one output row, c[oc*accStride+x] = Σ_p wq[oc*kkEven+p] *
// b[off[p]+x]. Integer accumulation is exact, so it is bit-identical to
// the vector kernels with no ordering care needed.
func qgemmScalar(wq []int16, b []int16, off []int32, oc0, oc1, x0, x1 int, c []int32, accStride int) {
	kkEvn := len(off)
	for oc := oc0; oc < oc1; oc++ {
		arow := wq[oc*kkEvn : (oc+1)*kkEvn]
		crow := c[oc*accStride:]
		for x := x0; x < x1; x++ {
			var s int32
			for p, o := range off {
				s += int32(arow[p]) * int32(b[int(o)+x])
			}
			crow[x] = s
		}
	}
}

// packWqBlocks interleaves the first outC&^3 rows of the kkEven-wide wq
// matrix into 4-row blocks laid out [kk2][4 channels][2 taps], the unit the
// vector kernels broadcast from as 32-bit tap pairs. Returns nil when no
// full 4-row block exists.
func packWqBlocks(wq []int16, outC, kkEvn int) []int16 {
	kk2 := kkEvn / 2
	nb := outC / 4
	if nb == 0 || kk2 == 0 {
		return nil
	}
	pack := make([]int16, nb*kk2*8)
	for bi := 0; bi < nb; bi++ {
		blk := pack[bi*kk2*8 : (bi+1)*kk2*8]
		for p2 := 0; p2 < kk2; p2++ {
			for r := 0; r < 4; r++ {
				blk[(p2*4+r)*2] = wq[(bi*4+r)*kkEvn+2*p2]
				blk[(p2*4+r)*2+1] = wq[(bi*4+r)*kkEvn+2*p2+1]
			}
		}
	}
	return pack
}

// requantReLU fuses the int8 epilogue of a hidden conv layer: dequantize
// the int32 accumulator with the per-channel multiplier m, add the folded
// bias, clamp to the next layer's quantized ReLU range [0, 127], truncate,
// and store as the next layer's int8-in-int16 activation. bh must be the
// folded bias PLUS 0.5 so the float clamp + truncation implements
// round-half-up without a separate add (quant.go precomputes it).
//
// The amd64 version vectorizes the body (cvtdq2ps/minps/maxps/cvttps2dq/
// packssdw); this Go tail/fallback performs the identical operations, and
// because min/max/truncate are exact in both forms the results match
// bit-for-bit.
func requantReLU(acc []int32, m, bh float32, out []int16) {
	i := 0
	if qrequantVec != nil {
		if n8 := len(acc) &^ 7; n8 > 0 {
			qrequantVec(n8, &acc[0], m, bh, &out[0])
			i = n8
		}
	}
	for ; i < len(acc); i++ {
		f := float32(acc[i])*m + bh
		f = min(f, 127)
		f = max(f, 0)
		out[i] = int16(int32(f))
	}
}

// qrequantVec, when non-nil, is the vectorized requantReLU body for a
// multiple-of-8 prefix (amd64: SSE2).
var qrequantVec func(n8 int, acc *int32, m, bh float32, out *int16)

// dequantInto converts the final conv layer's int32 accumulator back to
// float32 residuals: out[i] = acc[i]*m + b with the per-channel dequant
// scale m and the unquantized f32 bias b. The pixel-shuffle + residual-add
// epilogue consumes the result directly.
func dequantInto(acc []int32, m, b float32, out []float32) {
	for i, v := range acc {
		out[i] = float32(v)*m + b
	}
}

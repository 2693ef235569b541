//go:build amd64 && !purego

package nn

import "livenas/internal/cpu"

// kern8x8 computes, for r in 0..7 and j in 0..7,
//
//	c[r*cn+j] = bias[r] + Σ_{p<kk} a[p*8+r] * b[off[p]+j]
//
// with kern4x8's per-element ascending-p mul-then-add and relu store, in
// AVX2. a is a packed [kk][8] A tile (packA). Requires AVX2; call only when
// cpu.AVX2.
//
//go:noescape
func kern8x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// kern4x16 is kern4x8 widened to 16 columns in AVX2: same [kk][4] packed A,
// same per-element accumulation and relu store. Requires AVX2; call only
// when cpu.AVX2.
//
//go:noescape
func kern4x16(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// kern4x8 computes, for r in 0..3 and j in 0..7,
//
//	c[r*cn+j] = bias[r] + Σ_{p<kk} a[p*4+r] * b[off[p]+j]
//
// with the sum of every element accumulated in ascending p order using
// element-wise SSE2 MULPS/ADDPS (no FMA), matching scalar float32 rounding
// exactly; with relu set each element is stored as max(v, +0), v first, so
// anything not > 0 stores +0. a is a packed [kk][4] A tile (packA); off
// holds kk element offsets into b; c rows are cn elements apart.
//
//go:noescape
func kern4x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// kern1x8 computes c[j] = bias[0] + Σ_{p<kk} a[p] * b[off[p]+j] for j in
// 0..7, the single-row variant of kern4x8 used for the m-tail of
// gemmConvBias. a is a contiguous (unpacked) A row; accumulation and the
// relu store are kern4x8's.
//
//go:noescape
func kern1x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool)

// kern8x4 is the 4-column edge tile of the 8-row groups: kern8x8's [kk][8]
// packed A and per-element contract over columns 0..3, in SSE2.
//
//go:noescape
func kern8x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// kern4x4 is kern4x8 narrowed to columns 0..3, the 4-column edge tile of
// the 4-row groups.
//
//go:noescape
func kern4x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// kern1x4 is kern1x8 narrowed to columns 0..3, the 4-column edge tile of
// the single rows.
//
//go:noescape
func kern1x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool)

// kernDot4 computes out[r] = Σ_{p<n} g[p] * b[r*bn+p] for r in 0..3, where
// n is a multiple of 4, as four interleaved lane partials per row reduced
// as (l0+l2)+(l1+l3). gemmDotRows's scalar fallback mirrors that order.
//
//go:noescape
func kernDot4(n int, gv *float32, b *float32, bn int, out *float32)

// The f32 tile set is chosen once, from the module's one AVX2 probe.
func init() {
	if cpu.AVX2 {
		kernTile8x8, kernTile4x16 = kern8x8, kern4x16
	}
}

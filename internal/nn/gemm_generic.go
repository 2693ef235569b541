//go:build !amd64 || purego

package nn

import "unsafe"

// Pure-Go twins of the f32 micro-kernels. Semantics match the assembly
// exactly: per-element ascending-p accumulation and the `v > 0` relu store
// in every tile kernel (so the GEMM conv stays bit-identical to convRef on
// every architecture) and the (l0+l2)+(l1+l3) lane reduction in kernDot4.
// These builds always run the wide tiles, so gemmConvBias takes the same
// row and column split as on an AVX2 host.
func init() {
	kernTile8x8, kernTile4x16 = kern8x8, kern4x16
}

func kern8x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
	kernGo(kk, a, b, off, bias, c, cn, 8, 8, relu)
}

func kern4x16(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
	kernGo(kk, a, b, off, bias, c, cn, 4, 16, relu)
}

func kern4x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
	kernGo(kk, a, b, off, bias, c, cn, 4, 8, relu)
}

// kern1x8's unpacked A row is the [kk][1] packed layout.
func kern1x8(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool) {
	kernGo(kk, a, b, off, bias, c, 0, 1, 8, relu)
}

func kern8x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
	kernGo(kk, a, b, off, bias, c, cn, 8, 4, relu)
}

func kern4x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool) {
	kernGo(kk, a, b, off, bias, c, cn, 4, 4, relu)
}

func kern1x4(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, relu bool) {
	kernGo(kk, a, b, off, bias, c, 0, 1, 4, relu)
}

func kernDot4(n int, gv *float32, b *float32, bn int, out *float32) {
	gs := unsafe.Slice(gv, n)
	bs := unsafe.Slice(b, 3*bn+n)
	os := unsafe.Slice(out, 4)
	for r := 0; r < 4; r++ {
		row := bs[r*bn : r*bn+n]
		var l0, l1, l2, l3 float32
		for p := 0; p+4 <= n; p += 4 {
			l0 += float32(gs[p] * row[p])
			l1 += float32(gs[p+1] * row[p+1])
			l2 += float32(gs[p+2] * row[p+2])
			l3 += float32(gs[p+3] * row[p+3])
		}
		os[r] = (l0 + l2) + (l1 + l3)
	}
}

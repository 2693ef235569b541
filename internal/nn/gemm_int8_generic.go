//go:build !amd64 || purego

package nn

import "unsafe"

// Pure-Go twins of the int8 vector kernels. Non-amd64 builds leave
// qkernTile and qrequantVec nil, so the hot path routes through qgemmScalar
// and requantReLU's Go loop; the twins exist to keep the package's function
// surface identical on both sides of the build partition (the asm-abi check
// enforces this) and to document the kernels' exact semantics in Go.
// Integer accumulation and clamped-float requant are exact operations, so
// the twins are bit-identical to the amd64 vector kernels.

func qkern4x16(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int) {
	qkernGo(kk2, a, b, off, c, cn, 16)
}

func qkern4x8s(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int) {
	qkernGo(kk2, a, b, off, c, cn, 8)
}

// qkernGo computes one 4-row × cols-column C tile from a wqPack block laid
// out [kk2][4 channels][2 taps] (see packWqBlocks) and a bordered block read
// through the 2·kk2 tap offsets, writing — not accumulating — exactly like
// the pmaddwd kernels.
func qkernGo(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int, cols int) {
	as := unsafe.Slice(a, kk2*8)
	os := unsafe.Slice(off, 2*kk2)
	span := 0
	for _, o := range os {
		span = max(span, int(o))
	}
	bs := unsafe.Slice(b, span+cols)
	cs := unsafe.Slice(c, 3*cn+cols)
	for r := 0; r < 4; r++ {
		for j := 0; j < cols; j++ {
			var s int32
			for p2 := 0; p2 < kk2; p2++ {
				s += int32(as[(p2*4+r)*2])*int32(bs[int(os[2*p2])+j]) +
					int32(as[(p2*4+r)*2+1])*int32(bs[int(os[2*p2+1])+j])
			}
			cs[r*cn+j] = s
		}
	}
}

// qrequant mirrors requantReLU's scalar tail over a multiple-of-8 prefix.
func qrequant(n8 int, acc *int32, m, bh float32, out *int16) {
	as := unsafe.Slice(acc, n8)
	os := unsafe.Slice(out, n8)
	for i := 0; i < n8; i++ {
		f := float32(as[i])*m + bh
		f = min(f, 127)
		f = max(f, 0)
		os[i] = int16(int32(f))
	}
}

//go:build !amd64 || purego

package nn

import "unsafe"

// qrequant mirrors requantReLU's scalar tail over a multiple-of-8 prefix: the
// Go twin of the SSE2 requant kernel, which SetRequantVec installs. These
// builds otherwise leave qkernTile and qrequantVec nil, so the hot path runs
// qgemmScalar and requantReLU's Go loop. Clamped-float requant is exact, so
// the twin is bit-identical to the amd64 kernel.
func qrequant(n8 int, acc *int32, m, bh float32, out *int16) {
	as := unsafe.Slice(acc, n8)
	os := unsafe.Slice(out, n8)
	for i := 0; i < n8; i++ {
		f := float32(float32(as[i])*m) + bh
		f = min(f, 127)
		f = max(f, 0)
		os[i] = int16(int32(f))
	}
}

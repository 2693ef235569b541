//go:build amd64 && !purego

package nn

import "livenas/internal/cpu"

// qkern4x16 is the AVX2 int8 micro-kernel: a 4-row × 16-column int32 C tile
// accumulated over kk2 tap pairs with vpmaddwd. a points at one wqPack
// block ([kk2][4][2] int16), b at the tile's first column in its block row,
// off at the 2·kk2 tap offsets (tap p's 16 columns start at b[off[p]]), c
// at the tile's first element (rows cn int32 elements apart). Requires
// AVX2; call only when cpu.AVX2.
//
//go:noescape
func qkern4x16(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)

// qkern4x8s is the SSE2 pmaddwd fallback micro-kernel: 4 rows × 8 columns,
// same contract as qkern4x16. Runs on any amd64.
//
//go:noescape
func qkern4x8s(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)

// qrequant is the SSE2 requantReLU body for a multiple-of-8 element count:
// out[i] = int16(trunc(clamp(acc[i]*m + bh, 0, 127))).
//
//go:noescape
func qrequant(n8 int, acc *int32, m, bh float32, out *int16)

// The kernel choice is made once, from the module's one AVX2 probe.
func init() {
	if cpu.AVX2 {
		qkernTile, qkernTileCols = qkern4x16, 16
	} else {
		qkernTile, qkernTileCols = qkern4x8s, 8
	}
	qrequantVec = qrequant
}

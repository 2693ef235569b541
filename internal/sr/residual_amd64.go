//go:build amd64 && !purego

package sr

import "livenas/internal/cpu"

// addRowAVX2 is addRowGo in AVX2, eight pixels per step: VGATHERDPS
// fetches the residuals through idx, VMULPS scales them by 255, VPMOVZXBD
// and VCVTDQ2PS widen the pixels and VADDPS adds the two; the clamp is
// VMAXPS zero (value first, so NaN stores 0), VMINPS 255, +0.5 and a
// truncating VCVTTPS2DQ. Requires AVX2; call only when cpu.AVX2.
//
//go:noescape
func addRowAVX2(pix []uint8, res []float32, idx []int32)

// The residual row kernel is chosen once, from the module's one AVX2 probe.
func init() {
	if cpu.AVX2 {
		addRow = addRowAVX2
	}
}

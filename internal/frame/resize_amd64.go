//go:build amd64 && !purego

package frame

import "livenas/internal/cpu"

// hlerpAVX2 is hlerpGo in AVX2: it widens row into src (src[i] =
// float64(row[i]) for every i < len(row)), then gathers each output
// column's two taps from src with VGATHERDPD, four columns at a time, and
// stores a*omfx + b*fx with a separate multiply and add. The gather reads
// the float64 copy, never Pix, so every lane stays inside the row it was
// given. Requires AVX2; call only when cpu.AVX2.
//
//go:noescape
func hlerpAVX2(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64)

// vlerpAVX2 is vlerpGo in AVX2, four float64 lanes at a time: clamp8 is
// VMAXPD zero, VMINPD 255, +0.5 and a truncating VCVTTPD2DQ. Requires
// AVX2; call only when cpu.AVX2.
//
//go:noescape
func vlerpAVX2(top, bot []float64, omfy, fy float64, dst []uint8)

// halveSSE2 is halveRowGo in SSE2 over len(o) &^ 15 outputs, 16 per step.
// r0 and r1 must each hold at least 2·len(o) bytes.
//
//go:noescape
func halveSSE2(o, r0, r1 []uint8)

// The resize row kernels are chosen once, from the module's one AVX2 probe;
// Downscale's SSE2 kernel needs no probe.
func init() {
	useSSE2 = true
	if cpu.AVX2 {
		hlerpRow, vlerpRow = hlerpAVX2, vlerpAVX2
	}
}

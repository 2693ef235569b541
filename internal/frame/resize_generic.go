//go:build !amd64 || purego

package frame

// The pure-Go twins of the AVX2 resize kernels and of Downscale's SSE2 kernel
// are the Go row loops themselves; these builds never install anything else
// (useAVX2 and useSSE2 stay false).

func hlerpAVX2(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64) {
	hlerpGo(row, src, x0, x1, omfx, fx, dst)
}

func vlerpAVX2(top, bot []float64, omfy, fy float64, dst []uint8) {
	vlerpGo(top, bot, omfy, fy, dst)
}

func halveSSE2(o, r0, r1 []uint8) { halveRowGo(o, r0, r1, 0) }

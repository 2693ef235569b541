//go:build !amd64 || purego

package frame

// The pure-Go twins of the AVX2 resize kernels are the Go row loops
// themselves; these builds never install anything else (cpu.AVX2 is false).

func hlerpAVX2(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64) {
	hlerpGo(row, src, x0, x1, omfx, fx, dst)
}

func vlerpAVX2(top, bot []float64, omfy, fy float64, dst []uint8) {
	vlerpGo(top, bot, omfy, fy, dst)
}

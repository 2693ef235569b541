//go:build !amd64 || purego

package sr

// The pure-Go twin of the AVX2 residual row is the Go row loop itself;
// these builds never install anything else (cpu.AVX2 is false).
func addRowAVX2(pix []uint8, res []float32, idx []int32) { addRowGo(pix, res, idx) }

package sr

import (
	"testing"

	"livenas/internal/cpu"
)

// forEachResidualKernel runs fn as one subtest per residual row kernel this
// host can execute, with that kernel installed: the Go loop always ("go"),
// the AVX2 kernel when cpu.AVX2 ("avx2"). The installed kernel is restored
// afterwards, so the Go twin is tested on AVX2 hosts as well.
func forEachResidualKernel(t *testing.T, fn func(t *testing.T)) {
	type kernel struct {
		name string
		fn   func(pix []uint8, res []float32, idx []int32)
	}
	kernels := []kernel{{"go", addRowGo}}
	if cpu.AVX2 {
		kernels = append(kernels, kernel{"avx2", addRowAVX2})
	} else {
		t.Log("no AVX2 on this build or host; testing the Go residual row only")
	}
	saved := addRow
	defer func() { addRow = saved }()
	for _, k := range kernels {
		addRow = k.fn
		t.Run(k.name, fn)
	}
}

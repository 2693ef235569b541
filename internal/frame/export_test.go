package frame

import (
	"testing"

	"livenas/internal/cpu"
)

// forEachRowKernels runs fn as one subtest per resize row-kernel set this
// host can execute, with that set installed: the Go loops always ("go"),
// the AVX2 kernels when cpu.AVX2 ("avx2"). The installed set is restored
// afterwards, so the Go twins are tested on AVX2 hosts as well.
func forEachRowKernels(t *testing.T, fn func(t *testing.T)) {
	type rowKernels struct {
		name string
		h    func(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64)
		v    func(top, bot []float64, omfy, fy float64, dst []uint8)
	}
	sets := []rowKernels{{"go", hlerpGo, vlerpGo}}
	if cpu.AVX2 {
		sets = append(sets, rowKernels{"avx2", hlerpAVX2, vlerpAVX2})
	} else {
		t.Log("no AVX2 on this build or host; testing the Go row kernels only")
	}
	savedH, savedV := hlerpRow, vlerpRow
	defer func() { hlerpRow, vlerpRow = savedH, savedV }()
	for _, k := range sets {
		hlerpRow, vlerpRow = k.h, k.v
		t.Run(k.name, fn)
	}
}

// forEachHalveKernel runs fn as one subtest per Downscale(2) row kernel this
// build and host can execute, with that kernel selected: "go" always, and
// "asm" when init selected the SSE2 kernel. The selection is restored
// afterwards.
func forEachHalveKernel(t *testing.T, fn func(t *testing.T)) {
	saved := useSSE2
	defer func() { useSSE2 = saved }()
	useSSE2 = false
	t.Run("go", fn)
	if !saved {
		t.Log("no SSE2 kernel on this build; testing the Go row only")
		return
	}
	useSSE2 = true
	t.Run("asm", fn)
}

package frame

import (
	"testing"

	"livenas/internal/cpu"
)

// forEachRowKernels runs fn as one subtest per resize row-kernel set this
// host can execute, with that set selected: the Go loops always ("go"),
// the AVX2 kernels when cpu.AVX2 ("avx2"). The selection is restored
// afterwards, so the Go twins are tested on AVX2 hosts as well.
func forEachRowKernels(t *testing.T, fn func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	t.Run("go", fn)
	if !cpu.AVX2 {
		t.Log("no AVX2 on this build or host; testing the Go row kernels only")
		return
	}
	useAVX2 = true
	t.Run("avx2", fn)
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

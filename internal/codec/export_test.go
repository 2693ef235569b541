package codec

import "testing"

// codecKernels is one set of the kernels behind the codec's hot loops: the
// flags that select the SSE2 cost kernels and the AVX2 transforms and block
// kernels.
type codecKernels struct {
	name       string
	sse2, avx2 bool
}

// codecKernelSets returns the kernel sets this build and host can execute:
// the Go twins always ("go"), and the set init installed ("asm") when it
// holds any vector kernel — the SSE2 cost kernels on amd64 without purego,
// with the AVX2 ones as well when cpu.AVX2.
func codecKernelSets(t testing.TB) []codecKernels {
	goSet := codecKernels{"go", false, false}
	asmSet := codecKernels{"asm", useSSE2, useAVX2}
	if !asmSet.sse2 && !asmSet.avx2 {
		t.Log("no vector kernels on this build or host; testing the Go kernels only")
		return []codecKernels{goSet}
	}
	return []codecKernels{goSet, asmSet}
}

// install makes k the codec's kernels and returns a func restoring the
// previous ones.
func (k codecKernels) install() (restore func()) {
	sse2, avx2 := useSSE2, useAVX2
	useSSE2, useAVX2 = k.sse2, k.avx2
	return func() { useSSE2, useAVX2 = sse2, avx2 }
}

// forEachCodecKernels runs fn as one subtest per kernel set this host can
// execute, with that set installed, so the Go twins are tested on amd64
// hosts as well. The installed set is restored afterwards.
func forEachCodecKernels(t *testing.T, fn func(t *testing.T)) {
	for _, k := range codecKernelSets(t) {
		restore := k.install()
		t.Run(k.name, fn)
		restore()
	}
}

// Bits returns the payload size in bits.
func (ef *EncodedFrame) Bits() int { return len(ef.Data) * 8 }

// bitLen returns the current length of the stream in bits.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nAcc) }

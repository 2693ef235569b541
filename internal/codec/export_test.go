package codec

import (
	"reflect"
	"testing"
)

// codecKernels is one set of the kernels behind the codec's hot loops.
type codecKernels struct {
	name    string
	sad     func(cur []uint8, cs int, ref []uint8, rs int) int
	intra   func(cur []uint8, cs int, fl, ce int) int
	dctAVX2 bool
}

// codecKernelSets returns the kernel sets this build and host can execute:
// the Go twins always ("go"), and the set init installed ("asm") when it
// holds any other kernel — the SSE2 cost kernels on amd64 without purego,
// with the AVX2 transforms when cpu.AVX2 as well.
func codecKernelSets(t testing.TB) []codecKernels {
	goSet := codecKernels{"go", sad8x8Go, intraSAD8x8Go, false}
	asmSet := codecKernels{"asm", sad8x8, intraSAD8x8, dctAVX2}
	same := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if same(asmSet.sad, goSet.sad) && same(asmSet.intra, goSet.intra) && !asmSet.dctAVX2 {
		t.Log("no vector kernels on this build or host; testing the Go kernels only")
		return []codecKernels{goSet}
	}
	return []codecKernels{goSet, asmSet}
}

// install makes k the codec's kernels and returns a func restoring the
// previous ones.
func (k codecKernels) install() (restore func()) {
	sad, intra, avx2 := sad8x8, intraSAD8x8, dctAVX2
	sad8x8, intraSAD8x8, dctAVX2 = k.sad, k.intra, k.dctAVX2
	return func() { sad8x8, intraSAD8x8, dctAVX2 = sad, intra, avx2 }
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

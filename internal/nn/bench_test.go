package nn

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks of the im2col/GEMM engine with arena recycling:
// developer tools for `go test -bench`. The recorded figures are the
// nn.conv_*_gmacs_per_s metrics of the serve_hd benchmark workload.
//
// The shape (8→8 channels, 3×3 taps, 192×108 pixels) is the mid conv of
// the default SR model on a 1080p/10-strip inference block.

const (
	benchC = 8
	benchK = 3
	benchH = 108
	benchW = 192
)

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(benchC, benchC, benchK, rng)
	l.SetKernelContext(NewArena(), SharedPool())
	x := randTensor(benchC, benchH, benchW, rng)
	macs := int64(benchC * benchC * benchK * benchK * benchH * benchW)
	b.SetBytes(macs * 4) // nominal MAC throughput, 4 bytes per float32 MAC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.arena.Put(l.Forward(x))
	}
}

func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(benchC, benchC, benchK, rng)
	l.SetKernelContext(NewArena(), SharedPool())
	x := randTensor(benchC, benchH, benchW, rng)
	dOut := randTensor(benchC, benchH, benchW, rng)
	l.Forward(x)                                                           // cache the activation Backward consumes
	macs := int64(3 * benchC * benchC * benchK * benchK * benchH * benchW) // dIn + gradW + forward-equivalent
	b.SetBytes(macs * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.arena.Put(l.Backward(dOut))
	}
}

package nn

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks of the implicit-GEMM engine with arena recycling:
// developer tools for `go test -bench`. The recorded figures are the
// nn.conv_*_gmacs_per_s metrics of the serve_hd benchmark workload.
//
// The geometry (3×3 taps over 384×216 pixels) is the LR frame of the
// serve_hd workload; the channel counts are the default ×2 SR model's.

const (
	benchC = 8
	benchK = 3
	benchH = 216
	benchW = 384
)

// BenchmarkConvForward times each conv of the default ×2 model on its own,
// so each tile path has a number: head (1→8) and mid (8→8) run the 8-row
// tiles, tail (8→4, s² = 4 rows) the 4-row ones.
func BenchmarkConvForward(b *testing.B) {
	for _, s := range []struct {
		name      string
		inC, outC int
	}{{"head", 1, benchC}, {"mid", benchC, benchC}, {"tail", benchC, 4}} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := NewConv2D(s.inC, s.outC, benchK, rng)
			l.SetKernelContext(NewArena(), SharedPool())
			x := randTensor(s.inC, benchH, benchW, rng)
			macs := int64(s.inC * s.outC * benchK * benchK * benchH * benchW)
			b.SetBytes(macs * 4) // nominal MAC throughput, 4 bytes per float32 MAC
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.arena.Put(l.Forward(x))
			}
		})
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

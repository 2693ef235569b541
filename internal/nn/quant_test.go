package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The int8 path's correctness contract (DESIGN.md "Kernel engine"): every
// kernel variant (vector asm, scalar Go) produces bit-identical int32
// accumulators — integer math is exact, so this is equality, not
// tolerance — and the quantized conv tracks the f32 conv within the
// quantization error bound (rel-L2, checked here per layer; the end-to-end
// PSNR-gap bound lives in internal/sr).

func randI8(n int, rng *rand.Rand) []int16 {
	b := make([]int16, n)
	for i := range b {
		b[i] = int16(rng.Intn(255) - 127) // full int8 symmetric range
	}
	return b
}

// quantCase is one int8 implicit-GEMM problem: a k×k conv's bordered int16
// row block over c channels, its kkEven-entry tap table (an odd tap count's
// pad entry left at offset 0, as QuantConv.forward leaves it), random int8
// weights with a zero pad tap, and the exact accumulators computed from the
// im2colRef panel of the same block, without the table.
type quantCase struct {
	wq, b             []int16
	off               []int32
	outC, rows, w, bs int
	want              []int32
}

func randQuantCase(rng *rand.Rand, outC, c, k, w int) quantCase {
	pad := k / 2
	h := 1 + rng.Intn(10)
	y0 := rng.Intn(h)
	rows := 1 + rng.Intn(h-y0)
	bh, bw := rows+2*pad, w+2*pad
	x := randI8(c*h*w, rng)
	blk := make([]int16, c*bh*bw)
	borderBlock(x, c, h, w, pad, y0, rows, bh, blk)
	kk, ke := c*k*k, kkEven(c, k)
	off := make([]int32, ke)
	tapOffsets(off, c, k, bh, bw, false)
	wq := randI8(outC*ke, rng)
	for oc := 0; oc < outC && kk < ke; oc++ {
		wq[oc*ke+kk] = 0 // the pad tap, as QuantizeConv2D leaves it
	}
	n := rows * w
	panel := make([]int16, kk*n)
	im2colRef(x, c, h, w, k, y0, y0+rows, false, panel)
	want := make([]int32, outC*n)
	for oc := 0; oc < outC; oc++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < kk; p++ {
				s += int32(wq[oc*ke+p]) * int32(panel[p*n+j])
			}
			want[oc*n+j] = s
		}
	}
	return quantCase{wq, blk, off, outC, rows, w, bw, want}
}

// run drives gemmInt8Conv with the installed tiles into an accumulator
// whose channel rows carry two canary columns, and fails on any element
// that differs from the reference or any canary that was overwritten.
func (g quantCase) run(t *testing.T, trial int) {
	t.Helper()
	n := g.rows * g.w
	stride := n + 2
	acc := make([]int32, g.outC*stride)
	for i := range acc {
		acc[i] = -1 << 31 // canary: out of reach of any 127² sum
	}
	ke := len(g.off)
	gemmInt8Conv(g.wq, packWqBlocks(g.wq, g.outC, ke), g.b, g.off, g.outC, g.rows, g.w, g.bs, acc, stride)
	for oc := 0; oc < g.outC; oc++ {
		for j := 0; j < stride; j++ {
			want := int32(-1 << 31)
			if j < n {
				want = g.want[oc*n+j]
			}
			if got := acc[oc*stride+j]; got != want {
				t.Fatalf("trial %d (outC=%d kkEven=%d rows=%d w=%d tile=%d): acc[%d][%d] = %d, want %d",
					trial, g.outC, ke, g.rows, g.w, qkernTileCols, oc, j, got, want)
			}
		}
	}
}

func TestQuantGemmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randQuantCase(rng, 1+rng.Intn(9), 1+rng.Intn(9), 1+2*rng.Intn(3), 1+rng.Intn(70))
		g.run(t, trial)
	}
}

func TestRequantReLUVecMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	saved := qrequantVec
	defer func() { qrequantVec = saved }()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		// acc starts at every 4-byte offset from 16-byte alignment, as a
		// channel row of an odd-sized frame does.
		off := trial % 4
		acc := make([]int32, off+n)[off:]
		for i := range acc {
			// Span negatives, zero crossings and clamp-overflow magnitudes.
			acc[i] = int32(rng.Intn(1<<22) - 1<<21)
		}
		m := float32(rng.Float64() * 0.001)
		bh := float32(rng.Float64()*4-2) + 0.5

		qrequantVec = nil
		want := make([]int16, n)
		requantReLU(acc, m, bh, want)

		qrequantVec = saved
		got := make([]int16, n)
		requantReLU(acc, m, bh, got)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d n=%d: requant[%d] vec %d go %d (acc=%d m=%g bh=%g)",
					trial, n, i, got[i], want[i], acc[i], m, bh)
			}
			if want[i] < 0 || want[i] > 127 {
				t.Fatalf("requant[%d] = %d outside [0,127]", i, want[i])
			}
		}
	}
}

// TestQuantGemmScalarFallbackMatches pins that the pure-Go configuration
// (qkernTile nil, as on non-amd64 builds) routes through qgemmScalar and
// gives the exact accumulators.
func TestQuantGemmScalarFallbackMatches(t *testing.T) {
	savedK, savedC := qkernTile, qkernTileCols
	defer func() { qkernTile, qkernTileCols = savedK, savedC }()
	qkernTile, qkernTileCols = nil, 0

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randQuantCase(rng, 8, 8, 3, 40+rng.Intn(60))
		g.run(t, trial)
	}
}

// TestQuantConvDifferential bounds the per-layer quantization error: the
// int8 conv (quantized weights and input, exact accumulation, dequant
// epilogue) must track the f32 conv on the same input within a small
// rel-L2. Inputs model a quantized activation plane: int8 codes with scale
// 1/127, i.e. values in [0, 1].
func TestQuantConvDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	arena := NewArena()
	for trial := 0; trial < 10; trial++ {
		inC := 1 + rng.Intn(8)
		outC := 1 + rng.Intn(8)
		k := 1 + 2*rng.Intn(2)
		h := 4 + rng.Intn(30)
		w := 4 + rng.Intn(30)
		l := NewConv2D(inC, outC, k, rng)
		q := QuantizeConv2D(l)

		const xScale = 1.0 / 127
		xq := make([]int16, inC*h*w)
		x := NewTensor(inC, h, w)
		for i := range xq {
			xq[i] = int16(rng.Intn(128)) // ReLU-positive activation codes
			x.Data[i] = float32(xq[i]) * xScale
		}

		// f32 reference on the *dequantized* input isolates the weight
		// quantization + epilogue error this test bounds.
		l.SetKernelContext(nil, nil)
		want := l.Forward(x)

		m := make([]float32, outC)
		for oc := range m {
			m[oc] = q.ScaleW[oc] * xScale
		}
		got := make([]float32, outC*h*w)
		q.ForwardDequant(arena, xq, h, w, m, q.Bias, got)

		var num, den float64
		for i := range got {
			d := float64(got[i] - want.Data[i])
			num += d * d
			den += float64(want.Data[i]) * float64(want.Data[i])
		}
		rel := math.Sqrt(num / (den + 1e-12))
		if rel > 0.02 {
			t.Fatalf("trial %d (%d->%d k=%d %dx%d): int8 vs f32 rel-L2 %.4f > 0.02",
				trial, inC, outC, k, h, w, rel)
		}
	}
}

// TestQuantForwardRequantZeroAlloc pins the 0 allocs/op arena contract on
// the fused requant path once the arena is warm.
func TestQuantForwardRequantZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	arena := NewArena()
	l := NewConv2D(8, 8, 3, rng)
	q := QuantizeConv2D(l)
	h, w := 32, 48
	xq := randI8(8*h*w, rng)
	m := make([]float32, 8)
	bh := make([]float32, 8)
	for i := range m {
		m[i] = q.ScaleW[i] / 127
		bh[i] = q.Bias[i] + 0.5
	}
	out := make([]int16, 8*h*w)
	q.ForwardRequant(arena, xq, h, w, m, bh, out) // warm the arena
	allocs := testing.AllocsPerRun(10, func() {
		q.ForwardRequant(arena, xq, h, w, m, bh, out)
	})
	if allocs != 0 {
		t.Fatalf("ForwardRequant allocates %v/op, want 0", allocs)
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel engine's correctness contract (DESIGN.md "Kernel engine"):
// the GEMM forward is bit-identical to the scalar reference for every
// shape and so is the input gradient, weight and bias gradients agree
// within 1e-5 of the sum of their terms' magnitudes, and results are
// bit-identical across pool sizes. These tests check randomized shapes; the fuzz targets below
// extend the same differential checks to fuzzer-chosen shapes and data.

func randTensor(c, h, w int, rng *rand.Rand) *Tensor {
	t := NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// randShape's outC reaches 17, so the forward meets every 8+4+1 row split
// of gemmConvBias's tiles.
func randShape(rng *rand.Rand) (inC, outC, k, h, w int) {
	return 1 + rng.Intn(9), 1 + rng.Intn(17), 1 + 2*rng.Intn(3), 1 + rng.Intn(40), 1 + rng.Intn(40)
}

// diffConv runs one differential forward/backward comparison on the given
// shape and fails the test on any mismatch.
func diffConv(t *testing.T, inC, outC, k, h, w int, pool *Pool, arena *Arena, rng *rand.Rand) {
	t.Helper()
	l := NewConv2D(inC, outC, k, rng)
	x := randTensor(inC, h, w, rng)
	dOut := randTensor(outC, h, w, rng)

	// Scalar reference pass (the oracle allocates plainly; its backward
	// accumulates into a zeroed dIn).
	want := NewTensor(outC, h, w)
	convRefForward(l, x, want)
	wantDIn := NewTensor(inC, h, w)
	convRefBackward(l, x, dOut, wantDIn)
	wantGW := append([]float32(nil), l.gradW...)
	wantGB := append([]float32(nil), l.gradB...)

	// Kernel-engine pass on fresh gradient accumulators.
	for i := range l.gradW {
		l.gradW[i] = 0
	}
	for i := range l.gradB {
		l.gradB[i] = 0
	}
	l.SetKernelContext(arena, pool)
	got := l.Forward(x)
	gotDIn := l.Backward(dOut)

	// The forward and the input gradient run the same gemmConvBias, which
	// keeps the reference's per-element operation order.
	checkBits := func(name string, ref, got []float32) {
		t.Helper()
		for i := range ref {
			if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
				t.Fatalf("conv %dx%d k%d %dx%d: %s[%d] not bit-identical: ref %g (%#08x) gemm %g (%#08x)",
					inC, outC, k, h, w, name, i,
					ref[i], math.Float32bits(ref[i]), got[i], math.Float32bits(got[i]))
			}
		}
	}
	checkBits("forward", want.Data, got.Data)
	checkBits("dIn", wantDIn.Data, gotDIn.Data)
	// Weight and bias gradients tolerate reassociated accumulation (block
	// partials, lane splits). A float32 sum's rounding error scales with
	// the sum of its terms' magnitudes, which cancellation can make far
	// larger than the sum itself, so each element is bounded by the same
	// gradient over absolute values: |got-ref| <= 1e-5·Σ|terms|.
	absW, absB := convRefGradAbs(l, x, dOut)
	checkClose := func(name string, ref, got []float32, abs []float64) {
		t.Helper()
		for i := range ref {
			if d := math.Abs(float64(ref[i]) - float64(got[i])); d > 1e-5*abs[i] {
				t.Fatalf("conv %dx%d k%d %dx%d: %s[%d] = %g, ref %g: |diff| %g > 1e-5 x %g (the sum of |terms|)",
					inC, outC, k, h, w, name, i, got[i], ref[i], d, abs[i])
			}
		}
	}
	checkClose("gradW", wantGW, l.gradW, absW)
	checkClose("gradB", wantGB, l.gradB, absB)

	arena.Put(got)
	arena.Put(gotDIn)
}

// convRefGradAbs computes convRefBackward's weight and bias gradients over
// absolute values, in float64: Σ|dOut·x| per weight and Σ|dOut| per bias,
// the scale of the rounding error either float32 summation order can make.
func convRefGradAbs(l *Conv2D, x, dOut *Tensor) (gw, gb []float64) {
	h, w := x.H, x.W
	pad := l.K / 2
	gw, gb = make([]float64, len(l.Weight)), make([]float64, l.OutC)
	for oc := 0; oc < l.OutC; oc++ {
		g := dOut.Data[oc*h*w : (oc+1)*h*w]
		for _, v := range g {
			gb[oc] += math.Abs(float64(v))
		}
		for ic := 0; ic < l.InC; ic++ {
			src := x.Data[ic*h*w : (ic+1)*h*w]
			for ky := 0; ky < l.K; ky++ {
				for kx := 0; kx < l.K; kx++ {
					dy, dx := ky-pad, kx-pad
					var s float64
					for y := max(0, -dy); y < min(h, h-dy); y++ {
						for xx := max(0, -dx); xx < min(w, w-dx); xx++ {
							s += math.Abs(float64(g[y*w+xx]) * float64(src[(y+dy)*w+xx+dx]))
						}
					}
					gw[((oc*l.InC+ic)*l.K+ky)*l.K+kx] = s
				}
			}
		}
	}
	return gw, gb
}

func TestConvGEMMMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := NewPool(3)
	defer pool.Close()
	arena := NewArena()
	for trial := 0; trial < 50; trial++ {
		inC, outC, k, h, w := randShape(rng)
		diffConv(t, inC, outC, k, h, w, pool, arena, rng)
	}
	// Shapes chosen to hit every edge path: single pixel, single row/column,
	// width below and above the micro-kernels' 8- and 16-column tiles,
	// 8+4+1-row splits in the forward (outC) and the input gradient (inC),
	// multi-block heights, and kernels wider than the image.
	for _, s := range [][5]int{
		{1, 1, 1, 1, 1},
		{1, 1, 3, 1, 1},
		{2, 3, 5, 2, 2},
		{3, 5, 3, 1, 40},
		{5, 3, 3, 40, 1},
		{4, 4, 3, 7, 7},
		{1, 4, 3, 8, 8},
		{8, 8, 3, 33, 9},
		{3, 2, 5, 3, 3},
		{6, 7, 1, 12, 31},
		{13, 16, 3, 9, 21},
		{8, 13, 1, 5, 40},
	} {
		diffConv(t, s[0], s[1], s[2], s[3], s[4], pool, arena, rng)
	}
	// Every width remainder mod 8 under every row group, forward (outC)
	// and input gradient (inC): 13 channels are 8+4+1 rows, so each w
	// reaches the 8-, 4- and 1-row forms of the 4-column and scalar edges.
	for w := 1; w <= 17; w++ {
		diffConv(t, 13, 13, 3, 3, w, pool, arena, rng)
	}
}

// TestConvDeterministicAcrossPoolSizes pins the determinism argument: block
// partitioning depends only on shape, so any pool size — including the
// inline pool — produces bit-identical outputs and gradients.
func TestConvDeterministicAcrossPoolSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		inC, outC, k, h, w := randShape(rng)
		h, w = h+24, w+60 // large enough that convBlockRows yields several blocks
		l := NewConv2D(inC, outC, k, rng)
		x := randTensor(inC, h, w, rng)
		dOut := randTensor(outC, h, w, rng)

		type result struct {
			out, dIn     []float32
			gradW, gradB []float32
		}
		run := func(pool *Pool) result {
			for i := range l.gradW {
				l.gradW[i] = 0
			}
			for i := range l.gradB {
				l.gradB[i] = 0
			}
			l.SetKernelContext(NewArena(), pool)
			out := l.Forward(x)
			dIn := l.Backward(dOut)
			return result{
				out:   append([]float32(nil), out.Data...),
				dIn:   append([]float32(nil), dIn.Data...),
				gradW: append([]float32(nil), l.gradW...),
				gradB: append([]float32(nil), l.gradB...),
			}
		}
		base := run(nil)
		for _, workers := range []int{2, 5} {
			p := NewPool(workers)
			got := run(p)
			p.Close()
			for name, pair := range map[string][2][]float32{
				"out":   {base.out, got.out},
				"dIn":   {base.dIn, got.dIn},
				"gradW": {base.gradW, got.gradW},
				"gradB": {base.gradB, got.gradB},
			} {
				for i := range pair[0] {
					if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
						t.Fatalf("pool size %d: %s[%d] differs from inline result: %g vs %g",
							workers, name, i, pair[1][i], pair[0][i])
					}
				}
			}
		}
	}
}

// TestReLUAndPixelShuffleMatchRef checks the in-place/stride-copy paths
// against the seed implementations they replaced.
func TestReLUAndPixelShuffleMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arena := NewArena()
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+rng.Intn(6), 1+rng.Intn(20), 1+rng.Intn(20)

		r := &ReLU{}
		x := randTensor(c, h, w, rng)
		d := randTensor(c, h, w, rng)
		wantF, mask := reluRefForward(x)
		wantB := reluRefBackward(d, mask)
		x2, d2 := x.Clone(), d.Clone()
		gotF := r.Forward(x2)
		gotB := r.Backward(d2)
		for i := range wantF.Data {
			if wantF.Data[i] != gotF.Data[i] || wantB.Data[i] != gotB.Data[i] {
				t.Fatalf("ReLU mismatch at %d", i)
			}
		}

		s := 1 + rng.Intn(3)
		ps := &PixelShuffle{S: s}
		ps.SetKernelContext(arena, nil)
		in := randTensor(c*s*s, h, w, rng)
		dHR := randTensor(c, h*s, w*s, rng)
		wantPF := pixelShuffleRefForward(s, in)
		wantPB := pixelShuffleRefBackward(s, dHR)
		gotPF := ps.Forward(in)
		gotPB := ps.Backward(dHR)
		for i := range wantPF.Data {
			if wantPF.Data[i] != gotPF.Data[i] {
				t.Fatalf("PixelShuffle forward mismatch at %d", i)
			}
		}
		for i := range wantPB.Data {
			if wantPB.Data[i] != gotPB.Data[i] {
				t.Fatalf("PixelShuffle backward mismatch at %d", i)
			}
		}
		arena.Put(gotPF)
		arena.Put(gotPB)
	}
}

// TestConvInferMatchesForwardReLU pins the inference forward to the training
// chain it is carved from, by bit pattern: Infer(x, true) is Forward followed
// by ReLU.Forward, Infer(x, false) is Forward. The inputs carry NaN, ±Inf
// and ±0 and output channel 0 computes -0 wherever its window is finite
// (-0 weights and bias), so the fused epilogue's predicate is exercised on
// every value class ReLU.Forward's `v > 0` test distinguishes.
func TestConvInferMatchesForwardReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero}
	sameBits := func(name string, want, got *Tensor) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("%s: [%d] %g (%#08x), want %g (%#08x)", name, i,
					got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
	var nNaN, nNegZero int
	for _, workers := range []int{1, 3} {
		pool := NewPool(workers)
		arena := NewArena()
		for trial := 0; trial < 40; trial++ {
			inC, outC, k, h, w := randShape(rng)
			if trial%4 == 0 {
				h, w = 40+rng.Intn(40), 60+rng.Intn(40) // several row blocks
			}
			l := NewConv2D(inC, outC, k, rng)
			l.SetKernelContext(arena, pool)
			for i := range l.Bias {
				l.Bias[i] = float32(rng.NormFloat64())
			}
			for i := 0; i < inC*k*k; i++ {
				l.Weight[i] = negZero
			}
			l.Bias[0] = negZero
			x := randTensor(inC, h, w, rng)
			for i := range x.Data {
				x.Data[i] = float32(math.Abs(float64(x.Data[i]))) - 0.25
			}
			for n := len(x.Data) / 8; n >= 0; n-- {
				x.Data[rng.Intn(len(x.Data))] = specials[rng.Intn(len(specials))]
			}

			plain := l.Forward(x)
			for _, v := range plain.Data {
				switch {
				case v != v:
					nNaN++
				case math.Float32bits(v) == math.Float32bits(negZero):
					nNegZero++
				}
			}
			sameBits("Infer(x, false) vs Forward", plain, l.Infer(x, false))
			got := l.Infer(x, true)
			sameBits("Infer(x, true) vs Forward+ReLU", (&ReLU{}).Forward(plain), got)
			for _, v := range got.Data {
				if !(v > 0) && math.Float32bits(v) != 0 {
					t.Fatalf("fused ReLU let %g (%#08x) through", v, math.Float32bits(v))
				}
			}
		}
		pool.Close()
	}
	if nNaN == 0 || nNegZero == 0 {
		t.Fatalf("pre-activation outputs held %d NaN and %d -0: the test no longer covers them", nNaN, nNegZero)
	}
}

func TestPoolRunCoversAllIndicesNested(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	outer := make([]int, 16)
	p.Run(len(outer), func(i int) {
		inner := make([]int32, 8)
		// Nested Run from inside a pool task must not deadlock: the
		// caller-helps fork-join drains its own index space.
		p.Run(len(inner), func(j int) { inner[j]++ })
		s := 0
		for _, v := range inner {
			s += int(v)
		}
		outer[i] = s
	})
	for i, v := range outer {
		if v != 8 {
			t.Fatalf("outer[%d] = %d, want 8", i, v)
		}
	}
}

func TestArenaReusesExactSizes(t *testing.T) {
	a := NewArena()
	t1 := a.Get(2, 3, 4)
	a.Put(t1)
	t2 := a.Get(4, 3, 2) // same element count, different shape
	if &t2.Data[0] != &t1.Data[0] {
		t.Fatal("arena did not reuse the retired tensor of equal element count")
	}
	if t2.C != 4 || t2.H != 3 || t2.W != 2 {
		t.Fatalf("reused tensor has stale shape (%d,%d,%d)", t2.C, t2.H, t2.W)
	}
	b := a.GetBuf(128)
	a.PutBuf(b)
	if b2 := a.GetBuf(128); &b2[0] != &b[0] {
		t.Fatal("arena did not reuse the retired buffer")
	}
}

// FuzzConvForwardGEMM extends the differential check to fuzzer-chosen
// shapes and seeds: forward and input gradient must stay bit-identical to
// the scalar reference, weight and bias gradients within 1e-5 of the sum
// of their terms' magnitudes.
func FuzzConvForwardGEMM(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(9), uint8(11), int64(5))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(39), uint8(2), int64(99))
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), int64(-1))
	// 1→1 k1 35×31: cancellation left gradW's error at 2e-5 of ‖ref‖, past
	// the relative-L2 bound the gradients once had.
	f.Add(uint8(0), uint8(0), uint8(18), uint8(34), uint8(30), int64(50))
	pool := NewPool(2)
	defer pool.Close()
	arena := NewArena()
	f.Fuzz(func(t *testing.T, inCRaw, outCRaw, kRaw, hRaw, wRaw uint8, seed int64) {
		inC := 1 + int(inCRaw)%9
		outC := 1 + int(outCRaw)%17
		k := 1 + 2*(int(kRaw)%3)
		h := 1 + int(hRaw)%40
		w := 1 + int(wRaw)%40
		rng := rand.New(rand.NewSource(seed))
		diffConv(t, inC, outC, k, h, w, pool, arena, rng)
	})
}

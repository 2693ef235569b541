package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if len(x.Data) != 24 {
		t.Fatalf("len=%d", len(x.Data))
	}
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("At/Set mismatch")
	}
	y := x.Clone()
	y.Set(1, 2, 3, 9)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("Clone aliases storage")
	}
	if !x.SameShape(y) {
		t.Fatal("SameShape false for equal shapes")
	}
	x.AddInPlace(y)
	if x.At(1, 2, 3) != 16 {
		t.Fatal("AddInPlace wrong")
	}
	x.Zero()
	if x.At(1, 2, 3) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestTensorPanics(t *testing.T) {
	mustPanic(t, func() { NewTensor(0, 1, 1) })
	mustPanic(t, func() {
		a, b := NewTensor(1, 2, 2), NewTensor(1, 2, 3)
		a.AddInPlace(b)
	})
	mustPanic(t, func() { MSELoss(NewTensor(1, 2, 2), NewTensor(1, 3, 2)) })
}

// MSELoss is MSELossGradInto with a freshly allocated gradient tensor.
func MSELoss(pred, target *Tensor) (float64, *Tensor) {
	grad := NewTensor(pred.C, pred.H, pred.W)
	return MSELossGradInto(pred, target, grad), grad
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestMSELoss(t *testing.T) {
	a := NewTensor(1, 1, 2)
	b := NewTensor(1, 1, 2)
	a.Data[0], a.Data[1] = 1, 3
	b.Data[0], b.Data[1] = 0, 1
	loss, grad := MSELoss(a, b)
	if math.Abs(loss-2.5) > 1e-6 { // (1 + 4)/2
		t.Fatalf("loss=%v", loss)
	}
	if math.Abs(float64(grad.Data[0])-1) > 1e-6 || math.Abs(float64(grad.Data[1])-2) > 1e-6 {
		t.Fatalf("grad=%v", grad.Data)
	}
}

func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(1, 1, 3, rng)
	conv.ZeroInit()
	conv.Weight[4] = 1 // centre tap
	x := NewTensor(1, 4, 5)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := conv.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed data at %d", i)
		}
	}
}

func TestConvBiasOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D(2, 3, 3, rng)
	conv.ZeroInit()
	conv.Bias[1] = 2.5
	y := conv.Forward(NewTensor(2, 3, 3))
	for c := 0; c < 3; c++ {
		want := float32(0)
		if c == 1 {
			want = 2.5
		}
		for yy := 0; yy < 3; yy++ {
			for xx := 0; xx < 3; xx++ {
				if y.At(c, yy, xx) != want {
					t.Fatalf("bias broadcast wrong at (%d,%d,%d)", c, yy, xx)
				}
			}
		}
	}
}

// numericGrad estimates dLoss/dw by central differences.
func numericGrad(f func() float64, w *float32) float64 {
	const eps = 1e-3
	old := *w
	*w = old + eps
	lp := f()
	*w = old - eps
	lm := f()
	*w = old
	return (lp - lm) / (2 * eps)
}

func TestConvGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D(2, 2, 3, rng)
	x := NewTensor(2, 5, 5)
	target := NewTensor(2, 5, 5)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
		target.Data[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		y := conv.Forward(x)
		l, _ := MSELoss(y, target)
		return l
	}
	// Analytic gradients.
	y := conv.Forward(x)
	_, g := MSELoss(y, target)
	ZeroGrads([]Layer{conv})
	dIn := conv.Backward(g)

	// Check several weight gradients.
	for _, idx := range []int{0, 4, 9, 17, 35} {
		got := float64(conv.gradW[idx])
		want := numericGrad(loss, &conv.Weight[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("weight grad %d: analytic %v numeric %v", idx, got, want)
		}
	}
	// Bias gradients.
	for i := range conv.Bias {
		got := float64(conv.gradB[i])
		want := numericGrad(loss, &conv.Bias[i])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("bias grad %d: analytic %v numeric %v", i, got, want)
		}
	}
	// Input gradients.
	for _, idx := range []int{0, 7, 12, 24, 40} {
		got := float64(dIn.Data[idx])
		want := numericGrad(loss, &x.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", idx, got, want)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := NewTensor(1, 1, 4)
	copy(x.Data, []float32{-1, 0, 2, -3})
	y := r.Forward(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu fwd %v", y.Data)
		}
	}
	g := NewTensor(1, 1, 4)
	copy(g.Data, []float32{5, 5, 5, 5})
	d := r.Backward(g)
	wantG := []float32{0, 0, 5, 0}
	for i := range wantG {
		if d.Data[i] != wantG[i] {
			t.Fatalf("relu bwd %v", d.Data)
		}
	}
}

func TestPixelShuffleForward(t *testing.T) {
	ps := &PixelShuffle{S: 2}
	x := NewTensor(4, 1, 1)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := ps.Forward(x)
	if y.C != 1 || y.H != 2 || y.W != 2 {
		t.Fatalf("shape (%d,%d,%d)", y.C, y.H, y.W)
	}
	// Channel (sy*s+sx) goes to offset (sy, sx).
	if y.At(0, 0, 0) != 1 || y.At(0, 0, 1) != 2 || y.At(0, 1, 0) != 3 || y.At(0, 1, 1) != 4 {
		t.Fatalf("shuffle layout %v", y.Data)
	}
}

func TestPixelShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := &PixelShuffle{S: 3}
	x := NewTensor(9, 4, 5)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := ps.Forward(x)
	back := ps.Backward(y) // backward of shuffle is exact inverse permutation
	for i := range x.Data {
		if back.Data[i] != x.Data[i] {
			t.Fatal("pixel shuffle backward is not the inverse permutation")
		}
	}
}

func TestPixelShufflePanics(t *testing.T) {
	mustPanic(t, func() { (&PixelShuffle{S: 2}).Forward(NewTensor(3, 2, 2)) })
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)² via Adam on a fake Param.
	w := []float32{0}
	g := []float32{0}
	p := []Param{{W: w, Grad: g}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(p)
	}
	if math.Abs(float64(w[0])-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", w[0])
	}
}

func TestAdamPanicsOnParamCountChange(t *testing.T) {
	opt := NewAdam(0.01)
	opt.Step([]Param{{W: []float32{1}, Grad: []float32{0}}})
	mustPanic(t, func() {
		opt.Step([]Param{{W: []float32{1}, Grad: []float32{0}}, {W: []float32{1}, Grad: []float32{0}}})
	})
}

func TestEndToEndTrainingReducesLoss(t *testing.T) {
	// A 2-layer net must be able to fit a small random mapping.
	rng := rand.New(rand.NewSource(5))
	layers := []Layer{
		NewConv2D(1, 4, 3, rng),
		&ReLU{},
		NewConv2D(4, 1, 3, rng),
	}
	params := CollectParams(layers)
	opt := NewAdam(0.01)
	x := NewTensor(1, 6, 6)
	target := NewTensor(1, 6, 6)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
		target.Data[i] = float32(rng.NormFloat64()) * 0.3
	}
	var first, last float64
	for it := 0; it < 300; it++ {
		h := x
		for _, l := range layers {
			h = l.Forward(h)
		}
		loss, g := MSELoss(h, target)
		if it == 0 {
			first = loss
		}
		last = loss
		ZeroGrads(layers)
		for i := len(layers) - 1; i >= 0; i-- {
			g = layers[i].Backward(g)
		}
		opt.Step(params)
	}
	if last > first*0.5 {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
}

func TestCollectParamsOrderStable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layers := []Layer{NewConv2D(1, 2, 3, rng), &ReLU{}, NewConv2D(2, 1, 3, rng)}
	a := CollectParams(layers)
	b := CollectParams(layers)
	if len(a) != 4 || len(b) != 4 { // 2 convs x (weight, bias)
		t.Fatalf("param count %d/%d", len(a), len(b))
	}
	for i := range a {
		if &a[i].W[0] != &b[i].W[0] {
			t.Fatal("param order not stable")
		}
	}
}

// Property: with zero bias, convolution is homogeneous — Forward(a*x) ==
// a*Forward(x) — for random inputs and scales.
func TestQuickConvHomogeneous(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		conv := NewConv2D(2, 3, 3, rng)
		for i := range conv.Bias {
			conv.Bias[i] = 0
		}
		a := float32(aRaw%8) + 0.5
		x := NewTensor(2, 5, 5)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		ax := x.Clone()
		for i := range ax.Data {
			ax.Data[i] *= a
		}
		y1 := conv.Forward(ax)
		y0 := conv.Forward(x)
		for i := range y1.Data {
			d := y1.Data[i] - a*y0.Data[i]
			if d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: MSELoss is zero iff pred == target, and symmetric in its
// distance.
func TestQuickMSEProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewTensor(1, 4, 4)
		b := NewTensor(1, 4, 4)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
			b.Data[i] = float32(rng.NormFloat64())
		}
		l0, _ := MSELoss(a, a)
		lab, _ := MSELoss(a, b)
		lba, _ := MSELoss(b, a)
		return l0 == 0 && lab >= 0 && (lab-lba) < 1e-12 && (lba-lab) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"livenas/internal/frame"
)

func randFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

func TestMSEIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randFrame(rng, 16, 16)
	if got := MSE(f, f); got != 0 {
		t.Fatalf("MSE(f,f)=%v want 0", got)
	}
}

func TestMSEKnownValue(t *testing.T) {
	a := frame.New(2, 1)
	b := frame.New(2, 1)
	a.Pix[0], a.Pix[1] = 10, 20
	b.Pix[0], b.Pix[1] = 13, 16
	// ((3)^2 + (4)^2) / 2 = 12.5
	if got := MSE(a, b); got != 12.5 {
		t.Fatalf("MSE=%v want 12.5", got)
	}
}

func TestMSEPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE(frame.New(2, 2), frame.New(3, 2))
}

func TestPSNRCapOnIdentical(t *testing.T) {
	f := frame.New(8, 8)
	if got := PSNR(f, f); got != PSNRCap {
		t.Fatalf("identical PSNR=%v want %v", got, PSNRCap)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	// MSE of 65025/10 => PSNR = 10*log10(10) = 10 dB exactly.
	got := PSNRFromMSE(255 * 255 / 10.0)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("PSNR=%v want 10", got)
	}
}

func TestPSNRMSERoundTrip(t *testing.T) {
	for _, mse := range []float64{0.5, 3, 42.5, 1000} {
		p := PSNRFromMSE(mse)
		back := MSEFromPSNR(p)
		if math.Abs(back-mse)/mse > 1e-9 {
			t.Fatalf("round trip mse %v -> %v", mse, back)
		}
	}
}

func TestPSNRMonotoneInNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randFrame(rng, 32, 32)
	prev := math.Inf(1)
	for _, amp := range []int{1, 5, 20, 60} {
		g := f.Clone()
		for i := range g.Pix {
			v := int(g.Pix[i]) + rng.Intn(2*amp+1) - amp
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			g.Pix[i] = uint8(v)
		}
		p := PSNR(f, g)
		if p >= prev {
			t.Fatalf("PSNR not decreasing with noise amplitude: %v then %v", prev, p)
		}
		prev = p
	}
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randFrame(rng, 24, 24)
	if got := SSIM(f, f); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SSIM(f,f)=%v want 1", got)
	}
}

func TestSSIMRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randFrame(rng, 32, 32)
	b := randFrame(rng, 32, 32)
	s := SSIM(a, b)
	if s < -1 || s > 1 {
		t.Fatalf("SSIM out of range: %v", s)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	// Structured content: a gradient, so SSIM has structure to compare.
	f := frame.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			f.Set(x, y, uint8((x*4+y*2)%256))
		}
	}
	rng := rand.New(rand.NewSource(5))
	g := f.Clone()
	for i := range g.Pix {
		v := int(g.Pix[i]) + rng.Intn(81) - 40
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		g.Pix[i] = uint8(v)
	}
	if s := SSIM(f, g); s >= SSIM(f, f) {
		t.Fatalf("noisy SSIM %v should be below 1", s)
	}
}

func TestSSIMTinyFrame(t *testing.T) {
	a := frame.New(4, 4)
	b := frame.New(4, 4)
	if s := SSIM(a, b); math.Abs(s-1) > 1e-9 {
		t.Fatalf("tiny identical SSIM=%v", s)
	}
}

func TestMeanMedianStddev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Fatalf("mean=%v", m)
	}
	if m := Median(xs); m != 2.5 {
		t.Fatalf("median=%v", m)
	}
	if s := Stddev([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("stddev of constant = %v", s)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Fatalf("P%v = %v want %v", c.p, got, c.want)
		}
	}
	// Must not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len=%d", len(pts))
	}
	if pts[0].X != 1 || pts[2].X != 3 {
		t.Fatal("CDF not sorted")
	}
	if pts[2].P != 1 {
		t.Fatalf("last P=%v want 1", pts[2].P)
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

// Property: PSNR is symmetric and SSIM is symmetric.
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randFrame(rng, 16, 16)
		b := randFrame(rng, 16, 16)
		if PSNR(a, b) != PSNR(b, a) {
			return false
		}
		return math.Abs(SSIM(a, b)-SSIM(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF probabilities are non-decreasing and end at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].P < pts[i-1].P || pts[i].X < pts[i-1].X {
				return false
			}
		}
		return pts[len(pts)-1].P == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// mseRef is the seed MSE: a float64 sum of squared differences over the
// whole frame, divided by its pixel count.
func mseRef(a, b *frame.Frame) float64 {
	if len(a.Pix) == 0 {
		return 0
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += float64(d * d)
	}
	return sum / float64(len(a.Pix))
}

// TestMSEMatchesRef holds MSE and MSEWindow to the seed's float loop, bit
// for bit, under each sum-of-squares kernel: random frames of every width
// remainder mod 16 (and widths below one chunk), every window corner and
// size within a 37x5 frame against the crops it scores, and the largest
// sum a 4K frame can hold, all 0 against all 255.
func TestMSEMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var pairs [][2]*frame.Frame
	for w := 0; w <= 40; w++ {
		pairs = append(pairs, [2]*frame.Frame{randFrame(rng, w, 3), randFrame(rng, w, 3)})
	}
	pairs = append(pairs, [2]*frame.Frame{randFrame(rng, 384, 216), randFrame(rng, 384, 216)})
	black, white := frame.New(3840, 2160), frame.New(3840, 2160)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	win := [2]*frame.Frame{randFrame(rng, 37, 5), randFrame(rng, 37, 5)}
	forEachSSDKernel(t, func(t *testing.T) {
		for _, p := range pairs {
			if got, want := MSE(p[0], p[1]), mseRef(p[0], p[1]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d: MSE %v, seed %v", p[0].W, p[0].H, got, want)
			}
		}
		if got := MSE(black, white); got != 255*255 {
			t.Fatalf("4K all-0 against all-255: MSE %v, want %v", got, 255*255)
		}
		a, b := win[0], win[1]
		for y := 0; y <= a.H; y++ {
			for x := 0; x <= a.W; x++ {
				for h := 0; y+h <= a.H; h++ {
					for w := 0; x+w <= a.W; w++ {
						got := MSEWindow(a, b, x, y, w, h)
						want := mseRef(a.Crop(x, y, w, h), b.Crop(x, y, w, h))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("window (%d,%d) %dx%d: MSEWindow %v, seed on crops %v", x, y, w, h, got, want)
						}
					}
				}
			}
		}
	})
}

// TestMSEWindowOutsidePanics: a window that leaves either frame is a
// caller's bug, not a zero-padded crop.
func TestMSEWindowOutsidePanics(t *testing.T) {
	a, b := frame.New(8, 8), frame.New(8, 8)
	for _, w := range [][4]int{{-1, 0, 2, 2}, {0, -1, 2, 2}, {7, 0, 2, 2}, {0, 7, 2, 2}, {0, 0, 9, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %v: no panic", w)
				}
			}()
			MSEWindow(a, b, w[0], w[1], w[2], w[3])
		}()
	}
}

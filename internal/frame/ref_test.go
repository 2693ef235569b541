package frame

import (
	"bytes"
	"math/rand"
	"testing"
)

// The per-pixel implementations the table- and row-driven code replaced,
// kept as oracles: the product code must equal them byte for byte.

func equalFrames(a, b *Frame) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

// cropRef is Crop with a bounds test on every pixel.
func cropRef(f *Frame, x, y, w, h int) *Frame {
	out := New(w, h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			if sx, sy := x+c, y+r; sx >= 0 && sx < f.W && sy >= 0 && sy < f.H {
				out.Pix[r*w+c] = f.Pix[sy*f.W+sx]
			}
		}
	}
	return out
}

// pasteRef is Paste with a bounds test on every pixel.
func pasteRef(f, src *Frame, x, y int) {
	for r := 0; r < src.H; r++ {
		for c := 0; c < src.W; c++ {
			if dx, dy := x+c, y+r; dx >= 0 && dx < f.W && dy >= 0 && dy < f.H {
				f.Pix[dy*f.W+dx] = src.Pix[r*src.W+c]
			}
		}
	}
}

// resizeAxisRef is the half-pixel-centred sample position of output index i
// on an axis of n output and srcN source samples. The scale is computed
// first, as the product code does: (i+0.5)*srcN/n rounds differently.
func resizeAxisRef(i, n, srcN int) (p0, p1 int, fr float64) {
	scale := float64(srcN) / float64(n)
	src := (float64(i)+0.5)*scale - 0.5
	p0 = int(src)
	if src < 0 {
		src, p0 = 0, 0
	}
	p1 = p0 + 1
	if p1 >= srcN {
		p1 = srcN - 1
	}
	return p0, p1, src - float64(p0)
}

// resizeBilinearRef computes every output pixel from scratch: two
// horizontal lerps, then the vertical one.
func resizeBilinearRef(f *Frame, w, h int) *Frame {
	out := New(w, h)
	if f.W == 0 || f.H == 0 {
		return out
	}
	if w == f.W && h == f.H {
		copy(out.Pix, f.Pix)
		return out
	}
	for y := 0; y < h; y++ {
		y0, y1, fy := resizeAxisRef(y, h, f.H)
		for x := 0; x < w; x++ {
			x0, x1, fx := resizeAxisRef(x, w, f.W)
			top := float64(f.At(x0, y0))*(1-fx) + float64(f.At(x1, y0))*fx
			bot := float64(f.At(x0, y1))*(1-fx) + float64(f.At(x1, y1))*fx
			out.Pix[y*w+x] = clamp8(top*(1-fy) + bot*fy)
		}
	}
	return out
}

// TestResizeBilinearMatchesRef pins the cached-row resize to the per-pixel
// oracle over random up-, down- and identity scalings including 1-pixel
// axes, both as one whole-frame call and as a random partition of the
// output into row ranges filled in shuffled order (each range starts with a
// cold row cache, so the ranges also pin the cache's roll logic).
func TestResizeBilinearMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := func() int {
		if rng.Intn(6) == 0 {
			return 1
		}
		return 1 + rng.Intn(48)
	}
	for i := 0; i < 400; i++ {
		sw, sh, w, h := dim(), dim(), dim(), dim()
		switch rng.Intn(5) {
		case 0: // identity
			w, h = sw, sh
		case 1: // integer upscale, the SR geometry
			s := 1 + rng.Intn(4)
			w, h = sw*s, sh*s
		}
		f := randFrame(rng, sw, sh)
		want := resizeBilinearRef(f, w, h)
		if got := f.ResizeBilinear(w, h); !equalFrames(got, want) {
			t.Fatalf("%dx%d -> %dx%d: whole-frame resize differs from the oracle", sw, sh, w, h)
		}
		var cuts []int
		for r := 0; r < h; r += 1 + rng.Intn(h) {
			cuts = append(cuts, r)
		}
		cuts = append(cuts, h)
		got := New(w, h)
		for _, k := range rng.Perm(len(cuts) - 1) {
			f.ResizeBilinearRows(got, cuts[k], cuts[k+1])
		}
		if !equalFrames(got, want) {
			t.Fatalf("%dx%d -> %dx%d: rows cut at %v differ from the oracle", sw, sh, w, h, cuts)
		}
	}
}

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
	src := float64((float64(i)+0.5)*scale) - 0.5
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
			top := float64(float64(f.At(x0, y0))*(1-fx)) + float64(float64(f.At(x1, y0))*fx)
			bot := float64(float64(f.At(x0, y1))*(1-fx)) + float64(float64(f.At(x1, y1))*fx)
			out.Pix[y*w+x] = clamp8(float64(top*(1-fy)) + float64(bot*fy))
		}
	}
	return out
}

// TestResizeBilinearMatchesRef pins the cached-row resize to the per-pixel
// oracle, under the Go row kernels and (where the host has it) the AVX2
// ones: random up-, down- and identity scalings including 1-pixel axes;
// every source and output width 1-33, around the kernels' 4-lane steps and
// their scalar remainders; downscales whose taps jump by more than one
// source column; and the serve_hd frame, 384x216 -> 768x432. Each case runs
// as one whole-frame call and as a random partition of the output into row
// ranges filled in shuffled order (each range starts with a cold row
// cache, so the ranges also pin the cache's roll logic).
func TestResizeBilinearMatchesRef(t *testing.T) {
	forEachRowKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		check := func(f *Frame, w, h int) {
			t.Helper()
			want := resizeBilinearRef(f, w, h)
			if got := f.ResizeBilinear(w, h); !equalFrames(got, want) {
				t.Fatalf("%dx%d -> %dx%d: whole-frame resize differs from the oracle", f.W, f.H, w, h)
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
				t.Fatalf("%dx%d -> %dx%d: rows cut at %v differ from the oracle", f.W, f.H, w, h, cuts)
			}
		}
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
			check(randFrame(rng, sw, sh), w, h)
		}
		for sw := 1; sw <= 33; sw++ {
			f := randFrame(rng, sw, 3)
			for w := 1; w <= 33; w++ {
				check(f, w, 1+rng.Intn(6))
			}
		}
		for _, c := range [][4]int{{97, 41, 13, 5}, {200, 9, 33, 3}, {384, 216, 29, 17}, {255, 255, 8, 8}} {
			check(randFrame(rng, c[0], c[1]), c[2], c[3])
		}
		check(randFrame(rng, 384, 216), 768, 432)
	})
}

// downscaleRef is the seed Downscale: a float64 block sum divided by
// factor² and rounded by clamp8.
func downscaleRef(f *Frame, factor int) *Frame {
	if factor <= 1 {
		return f.Clone()
	}
	w, h := f.W/factor, f.H/factor
	out := New(w, h)
	n := float64(factor * factor)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum float64
			for dy := 0; dy < factor; dy++ {
				row := f.Pix[(y*factor+dy)*f.W:]
				for dx := 0; dx < factor; dx++ {
					sum += float64(row[x*factor+dx])
				}
			}
			out.Pix[y*w+x] = clamp8(sum / n)
		}
	}
	return out
}

// TestDownscaleMatchesRef pins the integer Downscale to the float oracle,
// under each Downscale(2) row kernel. The identity clamp8(s/n) ==
// (2s+n)/(2n) is checked for every block sum at factors 2-8; Downscale
// itself is checked on a frame holding one block of every sum at factors
// 2-4 (the factor-2 row kernel and the general loop), and on random frames
// whose sides are not multiples of the factor.
func TestDownscaleMatchesRef(t *testing.T) {
	forEachHalveKernel(t, testDownscaleMatchesRef)
}

func testDownscaleMatchesRef(t *testing.T) {
	for factor := 2; factor <= 8; factor++ {
		n := factor * factor
		for s := 0; s <= 255*n; s++ {
			if got, want := uint8((2*s+n)/(2*n)), clamp8(float64(s)/float64(n)); got != want {
				t.Fatalf("factor %d, sum %d: integer mean %d, float mean %d", factor, s, got, want)
			}
		}
	}
	for factor := 2; factor <= 4; factor++ {
		n := factor * factor
		f := New(factor*(255*n+1), factor)
		for s := 0; s <= 255*n; s++ {
			left := s
			for i := 0; i < n; i++ {
				v := min(left, 255)
				f.Set(s*factor+i%factor, i/factor, uint8(v))
				left -= v
			}
		}
		if !equalFrames(f.Downscale(factor), downscaleRef(f, factor)) {
			t.Fatalf("factor %d: every-sum frame differs from the oracle", factor)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range [][2]int{{7, 5}, {13, 9}, {1, 1}, {3, 17}, {385, 217}, {384, 216}, {768, 432}} {
		f := randFrame(rng, c[0], c[1])
		for factor := 1; factor <= 5; factor++ {
			if !equalFrames(f.Downscale(factor), downscaleRef(f, factor)) {
				t.Fatalf("%dx%d at factor %d differs from the oracle", c[0], c[1], factor)
			}
		}
	}
}

// TestHalveRowMatchesRef holds halveRow, under each Downscale(2) row kernel,
// to the seed's float box mean of each 2x2 block: rows of every width 0-40
// (every remainder of the kernel's 16 outputs, none, one and two whole
// chunks) from four offsets into the source rows, whose blocks run through
// every sum 0-1020 and then random bytes. No byte past the output row may
// be written.
func TestHalveRowMatchesRef(t *testing.T) {
	const n = 1024
	r0, r1 := make([]uint8, 2*n+8), make([]uint8, 2*n+8)
	for s := 0; s <= 1020; s++ { // block s sums to s, its taps as equal as they go
		for i := 0; i < 4; i++ {
			v := uint8((s + i) / 4)
			if i < 2 {
				r0[2*s+i] = v
			} else {
				r1[2*s+i-2] = v
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 2 * 1021; i < len(r0); i++ {
		r0[i], r1[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
	}
	forEachHalveKernel(t, func(t *testing.T) {
		check := func(lo, w int) {
			buf := make([]uint8, w+16)
			for i := range buf {
				buf[i] = 0xa5
			}
			halveRow(buf[:w], r0[2*lo:2*(lo+w)], r1[2*lo:2*(lo+w)])
			for x := 0; x < w; x++ {
				j := 2 * (lo + x)
				sum := float64(r0[j]) + float64(r0[j+1]) + float64(r1[j]) + float64(r1[j+1])
				if want := clamp8(float64(sum / 4)); buf[x] != want {
					t.Fatalf("block %d of a %d-wide row: %d, want %d", lo+x, w, buf[x], want)
				}
			}
			for i, b := range buf[w:] {
				if b != 0xa5 {
					t.Fatalf("a %d-wide row from block %d wrote byte %d past its end", w, lo, i)
				}
			}
		}
		for lo := 0; lo < 4; lo++ {
			for w := 0; w <= 40; w++ {
				check(lo, w)
			}
		}
		for lo := 0; lo+40 <= n; lo += 40 {
			check(lo, 40)
		}
		check(0, n)
	})
}

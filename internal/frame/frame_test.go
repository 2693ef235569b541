package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randFrame(rng *rand.Rand, w, h int) *Frame {
	f := New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

func TestNewZeroed(t *testing.T) {
	f := New(7, 3)
	if f.W != 7 || f.H != 3 || len(f.Pix) != 21 {
		t.Fatalf("bad frame shape: %dx%d len=%d", f.W, f.H, len(f.Pix))
	}
	for i, v := range f.Pix {
		if v != 0 {
			t.Fatalf("pixel %d not zeroed: %d", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	New(-1, 4)
}

func TestAtSet(t *testing.T) {
	f := New(4, 4)
	f.Set(2, 3, 99)
	if got := f.At(2, 3); got != 99 {
		t.Fatalf("At(2,3)=%d want 99", got)
	}
	if f.Pix[3*4+2] != 99 {
		t.Fatal("Set wrote to the wrong index")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(2, 2)
	f.Set(0, 0, 10)
	g := f.Clone()
	g.Set(0, 0, 20)
	if f.At(0, 0) != 10 {
		t.Fatal("Clone shares backing storage with original")
	}
	if g.At(0, 0) != 20 || g.W != 2 || g.H != 2 {
		t.Fatal("Clone did not copy contents")
	}
}

func TestCropInterior(t *testing.T) {
	f := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			f.Set(x, y, uint8(y*8+x))
		}
	}
	c := f.Crop(2, 3, 3, 2)
	if c.W != 3 || c.H != 2 {
		t.Fatalf("crop shape %dx%d", c.W, c.H)
	}
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			want := uint8((y+3)*8 + (x + 2))
			if c.At(x, y) != want {
				t.Fatalf("crop(%d,%d)=%d want %d", x, y, c.At(x, y), want)
			}
		}
	}
}

func TestCropClipsOutside(t *testing.T) {
	f := New(4, 4)
	for i := range f.Pix {
		f.Pix[i] = 200
	}
	c := f.Crop(-2, -2, 4, 4)
	// Top-left 2x2 of the crop is outside the frame and must be zero.
	if c.At(0, 0) != 0 || c.At(1, 1) != 0 {
		t.Fatal("out-of-bounds crop area not zeroed")
	}
	if c.At(2, 2) != 200 || c.At(3, 3) != 200 {
		t.Fatal("in-bounds crop area not copied")
	}
}

func TestPasteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randFrame(rng, 16, 12)
	region := f.Crop(5, 4, 6, 6)
	g := New(16, 12)
	g.Paste(region, 5, 4)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			if g.At(5+x, 4+y) != f.At(5+x, 4+y) {
				t.Fatalf("paste mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestPasteClips(t *testing.T) {
	f := New(4, 4)
	src := New(4, 4)
	for i := range src.Pix {
		src.Pix[i] = 7
	}
	f.Paste(src, 2, 2) // half the source lands outside
	if f.At(3, 3) != 7 {
		t.Fatal("in-bounds paste missing")
	}
	if f.At(0, 0) != 0 {
		t.Fatal("paste disturbed untouched pixels")
	}
}

func TestResizeBilinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randFrame(rng, 13, 9)
	g := f.ResizeBilinear(13, 9)
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestResizeBilinearConstant(t *testing.T) {
	f := New(10, 10)
	for i := range f.Pix {
		f.Pix[i] = 123
	}
	g := f.ResizeBilinear(37, 23)
	for i, v := range g.Pix {
		if v != 123 {
			t.Fatalf("constant frame not preserved at %d: %d", i, v)
		}
	}
}

func TestResizeBilinearGradientMonotone(t *testing.T) {
	// A horizontal ramp must remain monotone non-decreasing after scaling.
	f := New(32, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 32; x++ {
			f.Set(x, y, uint8(x*8))
		}
	}
	g := f.ResizeBilinear(96, 8)
	for y := 0; y < g.H; y++ {
		for x := 1; x < g.W; x++ {
			if g.At(x, y) < g.At(x-1, y) {
				t.Fatalf("ramp not monotone at (%d,%d)", x, y)
			}
		}
	}
}

func TestResizeBilinearZeroDims(t *testing.T) {
	f := New(4, 4)
	g := f.ResizeBilinear(0, 0)
	if g.W != 0 || g.H != 0 || len(g.Pix) != 0 {
		t.Fatal("zero-size resize should produce empty frame")
	}
}

func TestDownscaleBoxAverage(t *testing.T) {
	f := New(4, 4)
	// One 2x2 block of 100s, rest zero.
	f.Set(0, 0, 100)
	f.Set(1, 0, 100)
	f.Set(0, 1, 100)
	f.Set(1, 1, 100)
	g := f.Downscale(2)
	if g.W != 2 || g.H != 2 {
		t.Fatalf("downscale shape %dx%d", g.W, g.H)
	}
	if g.At(0, 0) != 100 {
		t.Fatalf("block average = %d want 100", g.At(0, 0))
	}
	if g.At(1, 1) != 0 {
		t.Fatal("zero block averaged wrong")
	}
}

func TestDownscaleFactorOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randFrame(rng, 6, 6)
	g := f.Downscale(1)
	if &g.Pix[0] == &f.Pix[0] {
		t.Fatal("Downscale(1) must return a copy")
	}
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			t.Fatal("Downscale(1) changed pixels")
		}
	}
}

func TestGrid1080p(t *testing.T) {
	// §5.2: a 1080p frame divides into a 16x9 grid of 120x120 patches.
	cells := Grid(1920, 1080, PatchSize)
	if len(cells) != 16*9 {
		t.Fatalf("1080p grid has %d cells, want 144", len(cells))
	}
	last := cells[len(cells)-1]
	if last.X != 15*120 || last.Y != 8*120 {
		t.Fatalf("last cell at (%d,%d)", last.X, last.Y)
	}
}

func TestGridOmitsPartialCells(t *testing.T) {
	cells := Grid(250, 130, 120)
	if len(cells) != 2 { // 2 cols x 1 row
		t.Fatalf("got %d cells, want 2", len(cells))
	}
}

func TestGridZeroCell(t *testing.T) {
	if Grid(100, 100, 0) != nil {
		t.Fatal("zero cell size should yield nil grid")
	}
}

func TestPatchExtraction(t *testing.T) {
	f := New(240, 240)
	for y := 120; y < 240; y++ {
		for x := 120; x < 240; x++ {
			f.Set(x, y, 50)
		}
	}
	cells := Grid(240, 240, PatchSize)
	p := Patch(f, cells[3], PatchSize) // bottom-right cell
	for _, v := range p.Pix {
		if v != 50 {
			t.Fatal("patch content wrong")
		}
	}
}

// Property: resizing down then up never panics and preserves shape, and the
// result of any resize stays within [0,255] by construction of clamp8.
func TestQuickResizeShapes(t *testing.T) {
	f := func(seed int64, w, h uint8) bool {
		sw, sh := int(w%50)+1, int(h%50)+1
		rng := rand.New(rand.NewSource(seed))
		fr := randFrame(rng, sw, sh)
		up := fr.ResizeBilinear(sw*2, sh*2)
		down := up.ResizeBilinear(sw, sh)
		return up.W == sw*2 && up.H == sh*2 && down.W == sw && down.H == sh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Crop followed by Paste at the same offset restores the region,
// and both equal the per-pixel bounds-tested oracles (ref_test.go) for any
// rectangle: negative origins, rectangles hanging over every edge or lying
// wholly outside, and sources larger than the destination.
func TestQuickCropPaste(t *testing.T) {
	f := func(seed int64, xo, yo int8, cw, ch uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fr := randFrame(rng, 40, 30)
		x, y := int(xo)%60, int(yo)%50 // [-59,59] x [-49,49]
		w, h := int(cw%70), int(ch%60) // up to 69x59: larger than fr
		c := fr.Crop(x, y, w, h)
		if !equalFrames(c, cropRef(fr, x, y, w, h)) {
			return false
		}
		g := fr.Clone()
		g.Paste(c, x, y)
		if !equalFrames(g, fr) {
			return false
		}
		src := randFrame(rng, w, h)
		want := fr.Clone()
		pasteRef(want, src, x, y)
		g.Paste(src, x, y)
		return equalFrames(g, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

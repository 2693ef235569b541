package vidgen

// Per-pixel reference renderer: the ground truth the table-driven FrameAt is
// differentially tested against, pixel for pixel (TestFrameAtMatchesRef). It
// is an oracle, not a renderer: nothing outside the tests can reach it.
// Sprites and the HUD are shared with FrameAt; only the texture/glyph/grain
// pixel loop has two implementations.

import (
	"math"
	"sync"
	"testing"

	"livenas/internal/frame"
)

// frameAtRef is the seed FrameAt, kept verbatim: every pixel evaluates three
// value-noise octaves (four lattice hashes and two math.Floor each) and the
// glyph-cell hashes from scratch.
func frameAtRef(s *Source, t float64) *frame.Frame {
	sc, _ := s.sceneAt(t)
	f := frame.New(s.W, s.H)
	p := s.P

	// Motion scales with output height so different native resolutions of
	// the same session show the same angular velocity.
	speed := p.Motion * float64(s.H) / 1080.0
	offX := sc.dirX * speed * (t - sc.start)
	offY := sc.dirY * speed * (t - sc.start)

	// Texture synthesis. Live-stream content (game worlds, UI, text,
	// produced video) is dominated by *structured* high-frequency detail:
	// flat regions separated by sharp boundaries, repeated glyph-like
	// marks, scene-specific palettes. That structure is what content-aware
	// super-resolution learns to restore (and what makes it beat a generic
	// model), so the generator produces it explicitly:
	//
	//   1. two smooth noise octaves folded through a scene-specific warp;
	//   2. posterisation to the scene's palette: flat areas with sharp,
	//      learnable edges (cartoon/game-like shading);
	//   3. a sparse lattice of glyph-like marks anchored to scene
	//      coordinates (in-world text, icons, ornaments);
	//   4. a small unstructured noise octave (sensor/film grain) whose
	//      amplitude follows the category Detail knob.
	base := sc.base
	amp1 := 70.0 * sc.contrast
	amp2 := 45.0 * sc.contrast * p.Detail
	grain := 6.0 * p.Detail
	// Feature sizes are defined relative to a 216-row canvas so that the
	// same session rendered at any resolution carries the same *relative*
	// detail — the property that lets reduced-scale experiment worlds
	// preserve full-scale result shapes.
	rel := float64(s.H) / 216.0
	tex := p.TexScale * rel
	inv1 := 1.0 / tex
	inv2 := 1.0 / (tex * 0.31)
	invG := 1.0 / (tex * 0.09)
	// Scene palette: posterisation step in luma levels.
	step := 18 + 22*hash01(11, 5, sc.seed)
	// Glyph lattice parameters: cell size, stroke width and mark density.
	glyphCell := (14 + 10*hash01(13, 6, sc.seed)) * rel
	// Glyph strokes stay at pixel scale regardless of resolution: text and
	// UI render at pixel precision on any canvas, which is exactly the
	// detail class super-resolution recovers.
	stroke := 2.0
	glyphDensity := 0.25 + 0.5*p.Detail

	for y := 0; y < s.H; y++ {
		fy := float64(y) + offY
		row := f.Pix[y*s.W:]
		for x := 0; x < s.W; x++ {
			fx := float64(x) + offX
			v := base
			n1 := valueNoise(fx*inv1, fy*inv1, sc.seed) - 0.5
			n2 := valueNoise(fx*inv2, fy*inv2, sc.seed^1) - 0.5
			v += amp1 * (math.Abs(n1)*2 - 0.5) * sc.warp
			v += amp2 * n2
			// Posterise to the scene palette: sharp edges between flats.
			v = math.Round(v/step) * step
			// Glyph marks: per-lattice-cell pseudo-random text-like strokes
			// anchored to scene coordinates (they scroll with the world).
			gx, gy := math.Floor(fx/glyphCell), math.Floor(fy/glyphCell)
			if hash01(int64(gx), int64(gy), sc.seed^3) < glyphDensity {
				// Position within the cell; draw a 2px-wide stroke pattern.
				lx := fx - gx*glyphCell
				ly := fy - gy*glyphCell
				style := hash01(int64(gx), int64(gy), sc.seed^4)
				on := false
				switch {
				case style < 0.4: // horizontal bar
					on = ly >= glyphCell*0.4 && ly < glyphCell*0.4+stroke && lx > stroke && lx < glyphCell-stroke
				case style < 0.8: // vertical bar
					on = lx >= glyphCell*0.5 && lx < glyphCell*0.5+stroke && ly > stroke && ly < glyphCell-stroke
				default: // dot
					on = lx >= glyphCell*0.4 && lx < glyphCell*0.4+1.5*stroke && ly >= glyphCell*0.4 && ly < glyphCell*0.4+1.5*stroke
				}
				if on {
					if v > 127 {
						v -= 90
					} else {
						v += 90
					}
				}
			}
			// Grain.
			v += grain * (valueNoise(fx*invG, fy*invG, sc.seed^2) - 0.5)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = uint8(v)
		}
	}

	s.drawSprites(f, sc, t)
	if p.HUD {
		s.drawHUD(f)
	}
	return f
}

func diffFrames(t *testing.T, name string, got, want *frame.Frame) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Errorf("%s: dims %dx%d want %dx%d", name, got.W, got.H, want.W, want.H)
		return
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Errorf("%s: pixel (%d,%d) = %d, oracle %d", name, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
			return
		}
	}
}

// TestFrameAtMatchesRef holds FrameAt to the per-pixel oracle exactly: every
// category, canvases from below one lattice cell per pixel (96x54, where the
// grain octave skips lattice rows) to the 4K-class fast world, an odd size,
// and times that land in the first scene, late scenes and past the horizon.
func TestFrameAtMatchesRef(t *testing.T) {
	dims := [][2]int{{96, 54}, {101, 77}, {384, 216}, {768, 432}}
	times := []float64{0, 0.1, 3.37, 29.9, 120.5, 250}
	for _, cat := range Categories() {
		for _, d := range dims {
			s := NewSource(cat, d[0], d[1], 17, 200)
			for _, tm := range times {
				diffFrames(t, s.Cat.String(), s.FrameAt(tm), frameAtRef(s, tm))
			}
		}
	}
}

// TestFrameAtConcurrent renders one Source from four goroutines (run under
// -race in CI): FrameAt's scratch must not live on the Source.
func TestFrameAtConcurrent(t *testing.T) {
	s := NewSource(Fortnite, 192, 108, 5, 60)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				tm := float64(g)*7.3 + float64(i)*0.1
				diffFrames(t, "concurrent", s.FrameAt(tm), frameAtRef(s, tm))
			}
		}(g)
	}
	wg.Wait()
}

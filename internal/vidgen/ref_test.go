package vidgen

// Per-pixel reference renderer: the ground truth the table-driven FrameAt is
// differentially tested against, pixel for pixel (TestFrameAtMatchesRef). It
// is an oracle, not a renderer: nothing outside the tests can reach it. The
// texture/glyph/grain pixel loop, the sprites and the HUD band each have two
// implementations; FrameAt clips the sprites at the HUD band's top, where
// the oracle draws them over every row and the band over them.

import (
	"fmt"
	"math"
	"math/rand"
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
	step := 18 + float64(22*hash01(11, 5, sc.seed))
	// Glyph lattice parameters: cell size, stroke width and mark density.
	glyphCell := (14 + float64(10*hash01(13, 6, sc.seed))) * rel
	// Glyph strokes stay at pixel scale regardless of resolution: text and
	// UI render at pixel precision on any canvas, which is exactly the
	// detail class super-resolution recovers.
	stroke := 2.0
	glyphDensity := 0.25 + float64(0.5*p.Detail)

	for y := 0; y < s.H; y++ {
		fy := float64(y) + float64(offY)
		row := f.Pix[y*s.W:]
		for x := 0; x < s.W; x++ {
			fx := float64(x) + float64(offX)
			v := base
			n1 := valueNoise(fx*inv1, fy*inv1, sc.seed) - 0.5
			n2 := valueNoise(fx*inv2, fy*inv2, sc.seed^1) - 0.5
			v += float64(amp1 * (float64(math.Abs(n1)*2) - 0.5) * sc.warp)
			v += float64(amp2 * n2)
			// Posterise to the scene palette: sharp edges between flats.
			v = float64(math.Round(v/step) * step)
			// Glyph marks: per-lattice-cell pseudo-random text-like strokes
			// anchored to scene coordinates (they scroll with the world).
			gx, gy := math.Floor(fx/glyphCell), math.Floor(fy/glyphCell)
			if hash01(int64(gx), int64(gy), sc.seed^3) < glyphDensity {
				// Position within the cell; draw a 2px-wide stroke pattern.
				lx := fx - float64(gx*glyphCell)
				ly := fy - float64(gy*glyphCell)
				style := hash01(int64(gx), int64(gy), sc.seed^4)
				on := false
				switch {
				case style < 0.4: // horizontal bar
					on = ly >= glyphCell*0.4 && ly < float64(glyphCell*0.4)+stroke && lx > stroke && lx < float64(glyphCell)-stroke
				case style < 0.8: // vertical bar
					on = lx >= glyphCell*0.5 && lx < float64(glyphCell*0.5)+stroke && ly > stroke && ly < float64(glyphCell)-stroke
				default: // dot
					on = lx >= glyphCell*0.4 && lx < float64(glyphCell*0.4)+float64(1.5*stroke) && ly >= glyphCell*0.4 && ly < float64(glyphCell*0.4)+float64(1.5*stroke)
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
			v += float64(grain * (valueNoise(fx*invG, fy*invG, sc.seed^2) - 0.5))
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = uint8(v)
		}
	}

	drawSpritesRef(s, f, sc, t, s.H) // over every row, HUD band included
	if p.HUD {
		drawHUDRef(s, f)
	}
	return f
}

// valueNoise evaluates smoothed lattice value noise at (x, y) for stream id:
// four lattice hashes and two math.Floor per call.
func valueNoise(x, y float64, id uint64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := float64(smoothstep(x-x0)), float64(smoothstep(y-y0))
	ix, iy := int64(x0), int64(y0)
	v00 := hash01(ix, iy, id)
	v10 := hash01(ix+1, iy, id)
	v01 := hash01(ix, iy+1, id)
	v11 := hash01(ix+1, iy+1, id)
	top := float64(v00*(1-fx)) + float64(v10*fx)
	bot := float64(v01*(1-fx)) + float64(v11*fx)
	return float64(top*(1-fy)) + float64(bot*fy)
}

// drawSpritesRef is the seed drawSprites, kept verbatim: every body pixel
// evaluates valueNoise from scratch.
func drawSpritesRef(s *Source, f *frame.Frame, sc scene, t float64, top int) {
	p := s.P
	for i := 0; i < p.Sprites; i++ {
		id := sc.seed ^ uint64(i+1)*0x9e3779b9
		w := int(float64(s.W) * (0.04 + float64(0.08*hash01(int64(i), 11, id))))
		h := int(float64(s.H) * (0.05 + float64(0.1*hash01(int64(i), 12, id))))
		// Lissajous-style trajectories, speed tied to category motion.
		sp := (0.2 + hash01(int64(i), 13, id)) * p.Motion / 100
		phx := float64(hash01(int64(i), 14, id) * 2 * math.Pi)
		phy := float64(hash01(int64(i), 15, id) * 2 * math.Pi)
		cx := (0.5 + float64(0.45*math.Sin(float64(sp*t)+phx))) * float64(s.W)
		cy := (0.5 + float64(0.42*math.Sin(float64(sp*t*1.3)+phy))) * float64(s.H)
		lum := uint8(40 + float64(180*hash01(int64(i), 16, id)))
		x0, y0 := int(cx)-w/2, int(cy)-h/2
		for y := y0; y < y0+h; y++ {
			if y < 0 || y >= top {
				continue
			}
			row := f.Pix[y*s.W:]
			for x := x0; x < x0+w; x++ {
				if x < 0 || x >= s.W {
					continue
				}
				// Textured sprite body with a bright 1-px outline.
				if y == y0 || y == y0+h-1 || x == x0 || x == x0+w-1 {
					row[x] = 235
				} else {
					n := valueNoise(float64(x)/7, float64(y)/7, id)
					row[x] = uint8(float64(lum) * (0.6 + float64(0.4*n)))
				}
			}
		}
	}
}

// drawHUDRef is the seed drawHUD, kept verbatim: the block and its parity
// are recomputed at every pixel of the band.
func drawHUDRef(s *Source, f *frame.Frame) {
	hudH := s.H / 12
	if hudH < 2 {
		return
	}
	y0 := s.H - hudH
	for y := y0; y < s.H; y++ {
		row := f.Pix[y*s.W:]
		for x := 0; x < s.W; x++ {
			// Alternating glyph-like blocks: crisp verticals the encoder
			// blurs at low bitrate and SR can re-sharpen.
			gx := x / (hudH / 2)
			if (gx+((y-y0)/(hudH/4+1)))%2 == 0 {
				row[x] = 28
			} else {
				row[x] = 222
			}
		}
	}
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

// TestFrameAtMatchesRef holds FrameAt to the per-pixel oracle exactly, under
// each pixel-row kernel set: every category, canvases from below one
// lattice cell per pixel (96x54, where the grain octave skips lattice rows)
// to the 4K-class fast world, widths of every remainder mod 4 (the AVX2
// kernel renders whole quads, the Go twin the rest) down to one narrower
// than a quad, and times that land in the first scene, late scenes and past
// the horizon.
//
// Sprites are held to the seed drawSprites (drawSpritesRef) at the times,
// found by a scan of the seed's sprite geometry, where one straddles the
// frame's left or right edge or the HUD band's top, or touches row 0: a
// sprite centre stays 0.08 of the height from the top and bottom edges and
// its half height is at most 0.075 of it, so none reaches above row 0 (or
// below the last row).
func TestFrameAtMatchesRef(t *testing.T) {
	dims := [][2]int{{96, 54}, {101, 77}, {384, 216}, {768, 432}, {3, 2}, {6, 5}, {103, 59}}
	times := []float64{0, 0.1, 3.37, 29.9, 120.5, 250}
	edges := spriteEdgeTimes(t, [][2]int{{96, 54}, {384, 216}, {103, 59}})
	forEachPixKernels(t, func(t *testing.T) {
		for _, cat := range Categories() {
			for _, d := range dims {
				s := NewSource(cat, d[0], d[1], 17, 200)
				for _, tm := range times {
					diffFrames(t, s.Cat.String(), s.FrameAt(tm), frameAtRef(s, tm))
				}
			}
		}
		for _, e := range edges {
			diffFrames(t, fmt.Sprintf("%v %dx%d at %v, a sprite on the %s", e.s.Cat, e.s.W, e.s.H, e.t, e.edge),
				e.s.FrameAt(e.t), frameAtRef(e.s, e.t))
		}
	})
}

// TestSpriteNoiseMatchesValueNoise holds a sprite body's table-driven noise
// to valueNoise(float64(x)/7, float64(y)/7, id) bit for bit, before any
// rounding to a byte could hide a last-bit slip: a column computed as
// x·(1/7) instead of x/7 differs at a third of all x, and one of the
// frame oracle's bytes seldom shows it.
func TestSpriteNoiseMatchesValueNoise(t *testing.T) {
	var o octave
	for _, c := range [][2]int{{0, 1}, {0, 46}, {3, 17}, {6, 8}, {100, 147}, {377, 383}, {1000, 1063}} {
		for _, id := range []uint64{1, 0x9e3779b9, 1 << 63} {
			o.sprite(c[0], c[1], id)
			for _, ys := range [][2]int{{0, 40}, {96, 110}, {300, 301}} {
				for y := ys[0]; y < ys[1]; y++ {
					wy, omy := o.lattice(float64(y) / 7)
					for j := range c[1] - c[0] {
						x := c[0] + j
						got := float64(o.top[j]*omy) + float64(o.bot[j]*wy)
						if want := valueNoise(float64(x)/7, float64(y)/7, id); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("id %#x, columns [%d,%d): noise at (%d,%d) = %v, valueNoise %v", id, c[0], c[1], x, y, got, want)
						}
					}
				}
			}
		}
	}
}

// spriteEdge is a frame in which a sprite lies across edge.
type spriteEdge struct {
	s    *Source
	t    float64
	edge string
}

// spriteEdgeTimes scans t = 0, 0.05, ... 100 s of every category at each
// size for the first frame in which some sprite of at least 3x3 pixels (so
// with a body) crosses each edge, and fails the test if an edge is crossed
// in none of them.
func spriteEdgeTimes(t *testing.T, dims [][2]int) []spriteEdge {
	var out []spriteEdge
	seen := map[string]bool{}
	for _, cat := range Categories() {
		for _, d := range dims {
			s := NewSource(cat, d[0], d[1], 17, 200)
			hud := s.hudTop()
			first := map[string]bool{}
			for k := 0; k <= 2000; k++ {
				tm := float64(k) * 0.05
				sc, _ := s.sceneAt(tm)
				for i := 0; i < s.P.Sprites; i++ {
					x0, y0, w, h := spriteBox(s, sc, i, tm)
					if w < 3 || h < 3 {
						continue
					}
					for _, e := range []struct {
						edge string
						on   bool
					}{
						{"left", x0 < 0 && x0+w > 0},
						{"right", x0 < s.W && x0+w > s.W},
						{"top row", y0 == 0},
						{"HUD top", hud < s.H && y0 < hud && y0+h > hud},
					} {
						if e.on && !first[e.edge] {
							first[e.edge], seen[e.edge] = true, true
							out = append(out, spriteEdge{s, tm, e.edge})
						}
					}
				}
			}
		}
	}
	for _, edge := range []string{"left", "right", "top row", "HUD top"} {
		if !seen[edge] {
			t.Fatalf("no sprite crosses the %s in the scan", edge)
		}
	}
	return out
}

// spriteBox is the outline box of sprite i of scene sc at time t, placed by
// drawSpritesRef's expressions.
func spriteBox(s *Source, sc scene, i int, t float64) (x0, y0, w, h int) {
	p := s.P
	id := sc.seed ^ uint64(i+1)*0x9e3779b9
	w = int(float64(s.W) * (0.04 + float64(0.08*hash01(int64(i), 11, id))))
	h = int(float64(s.H) * (0.05 + float64(0.1*hash01(int64(i), 12, id))))
	sp := (0.2 + hash01(int64(i), 13, id)) * p.Motion / 100
	phx := float64(hash01(int64(i), 14, id) * 2 * math.Pi)
	phy := float64(hash01(int64(i), 15, id) * 2 * math.Pi)
	cx := (0.5 + float64(0.45*math.Sin(float64(sp*t)+phx))) * float64(s.W)
	cy := (0.5 + float64(0.42*math.Sin(float64(sp*t*1.3)+phy))) * float64(s.H)
	return int(cx) - w/2, int(cy) - h/2, w, h
}

// pixelRef is frameAtRef's per-pixel arithmetic from the octave lattice
// values on: the seed's Go expression, one pixel at a time. on is the
// pixel's glyph styles, k's rowOn the row's.
func pixelRef(k *pixLanes, on uint8, t1, b1, t2, b2, tG, bG float64) uint8 {
	v := k.base[0]
	n1 := float64(t1*k.omy1[0]) + float64(b1*k.wy1[0]) - 0.5
	n2 := float64(t2*k.omy2[0]) + float64(b2*k.wy2[0]) - 0.5
	v += float64(k.amp1[0] * (float64(math.Abs(n1)*2) - 0.5) * k.warp[0])
	v += float64(k.amp2[0] * n2)
	v = float64(math.Round(v/k.step[0]) * k.step[0])
	if on&uint8(k.rowOn[0]) != 0 {
		if v > 127 {
			v -= 90
		} else {
			v += 90
		}
	}
	v += float64(k.grain[0] * (float64(tG*k.omyG[0]) + float64(bG*k.wyG[0]) - 0.5))
	if v < 0 {
		v = 0
	} else if v > 255 {
		v = 255
	}
	return uint8(v)
}

// pixRowCase is one synthetic row: the frame and row operands (rowOn is
// varied by the test) and each pixel's inputs.
type pixRowCase struct {
	name                   string
	k                      pixLanes
	on                     []uint8
	t1, b1, t2, b2, tG, bG []float64
}

// set broadcasts the frame's operands and the row's octave y weights.
func (c *pixRowCase) set(base, amp1, warp, amp2, step, grain, wy1, wy2, wyG float64) {
	k := &c.k
	bcast(&k.base, base)
	bcast(&k.amp1, amp1)
	bcast(&k.warp, warp)
	bcast(&k.amp2, amp2)
	bcast(&k.step, step)
	bcast(&k.grain, grain)
	bcast(&k.wy1, wy1)
	bcast(&k.omy1, 1-wy1)
	bcast(&k.wy2, wy2)
	bcast(&k.omy2, 1-wy2)
	bcast(&k.wyG, wyG)
	bcast(&k.omyG, 1-wyG)
}

func (c *pixRowCase) add(on uint8, t1, b1, t2, b2, tG, bG float64) {
	c.on = append(c.on, on)
	c.t1, c.b1, c.t2, c.b2 = append(c.t1, t1), append(c.b1, b1), append(c.t2, t2), append(c.b2, b2)
	c.tG, c.bG = append(c.tG, tG), append(c.bG, bG)
}

// directRow builds a row whose pixels reach the posterise step at exactly
// the values vs, each followed by a grain term of exactly d for every d in
// ds; on cycles through every style mask. The row's base is anchor and a
// pixel adds v-anchor through the second octave (amp1 0, amp2 1, weight 1
// on t2 = v-anchor+0.5), so v needs no more precision than the anchor
// gives it; grain is 1, on tG = d+0.5. It fails the test if a value does
// not come out exact, since the edge case it stands for would go untested.
func directRow(t *testing.T, name string, step, anchor float64, vs, ds []float64) *pixRowCase {
	c := &pixRowCase{name: name}
	c.set(anchor, 0, 1, 1, step, 1, 0.5, 0, 0)
	for _, v := range vs {
		for _, d := range ds {
			t2, tG := v-anchor+0.5, d+0.5
			if got := anchor + (t2*1 + 0*0 - 0.5); got != v {
				t.Fatalf("%s: v %v reaches posterise as %v", name, v, got)
			}
			if got := tG*1 + 0*0 - 0.5; got != d {
				t.Fatalf("%s: grain %v comes out as %v", name, d, got)
			}
			c.add(uint8(len(c.on)%8), 0.3, 0.9, t2, 0, tG, 0)
		}
	}
	return c
}

// tie returns the v nearest (k+0.5)*step whose quotient v/step is exactly
// k+0.5, if there is one: v/step is monotone in v, so it walks v one ulp
// at a time until the quotient reaches k+0.5 or passes it.
func tie(step float64, k int) (float64, bool) {
	q := float64(k) + 0.5
	v := q * step
	for v/step < q {
		v = math.Nextafter(v, math.Inf(1))
	}
	for v/step > q {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v, v/step == q
}

// TestPixRowMatchesGo holds pixRow, under each pixel-row kernel set, to the
// seed's per-pixel expression byte for byte, on synthetic rows built to
// reach every edge of the lane arithmetic: posterise ties and one ulp
// either side, quotients in (-0.5, 0.5) that round to -0, v at 127 and one
// ulp either side at the glyph toggle, clamps at 0 and 255, every on and
// rowOn style mask, and realistic random rows. Each row is rendered at
// widths 0-9 from four offsets (every lane remainder, every lane position)
// and whole; no byte past the row may be written.
func TestPixRowMatchesGo(t *testing.T) {
	ulp := func(v float64) []float64 {
		return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
	}
	grains := []float64{0, 0x1p-30, -0x1p-30, 0.25, -0.25}
	var cases []*pixRowCase
	for _, step := range []float64{32, 18 + 22*0.37, 39.7} {
		// Posterise ties, and one ulp either side: one row per tie.
		n := 0
		for k := -4; k <= 8; k++ {
			if v, ok := tie(step, k); ok {
				cases = append(cases, directRow(t, fmt.Sprintf("step %v tie %v", step, v), step, v, ulp(v), grains))
				n++
			}
		}
		if n < 6 {
			t.Fatalf("step %v: %d of 13 posterise ties exist", step, n)
		}
		// Quotients in (-0.5, 0.5), negative ones rounding to -0; v is a
		// multiple of 2^-40, which the 0.5 offsets keep exact.
		var vs []float64
		for _, q := range []float64{-0.49, -0.3, 0.3, 0.49} {
			vs = append(vs, math.Round(q*step*0x1p40)/0x1p40)
		}
		vs = append(vs, -0x1p-30, 0x1p-30, 0)
		cases = append(cases, directRow(t, fmt.Sprintf("step %v near 0", step), step, 0, vs, grains))
		// Far outside the palette: clamps at 0 and 255.
		cases = append(cases, directRow(t, fmt.Sprintf("step %v far", step), step, 0, []float64{-1e12, -300, -1, 256, 300, 1e6, 1e12}, grains))
	}
	// At step 127 (and one ulp either side) v is 1*step after posterise:
	// exactly 127, or 127 -+ 1 ulp, at the glyph toggle.
	for _, step := range ulp(127) {
		cases = append(cases, directRow(t, fmt.Sprintf("toggle step %v", step), step, step, []float64{step, 100, 150}, grains))
	}
	// At step 51 v reaches 255 exactly, and 0; the grain terms then clamp.
	cases = append(cases, directRow(t, "clamp", 51, 0, []float64{255, 0}, []float64{0, 0x1p-30, -0x1p-30, 2, -2}))
	rng := rand.New(rand.NewSource(3))
	for _, cat := range Categories() {
		p := ParamsFor(cat)
		c := &pixRowCase{name: "random " + cat.String()}
		contrast := 0.6 + float64(0.8*rng.Float64())
		c.set(70+float64(120*rng.Float64()), 70*contrast, 0.5+float64(1.5*rng.Float64()), 45*contrast*p.Detail,
			18+float64(22*rng.Float64()), 6*p.Detail, rng.Float64(), rng.Float64(), rng.Float64())
		for i := 0; i < 61; i++ {
			c.add(uint8(rng.Intn(8)), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		}
		cases = append(cases, c)
	}

	forEachPixKernels(t, func(t *testing.T) {
		for _, c := range cases {
			n := len(c.on)
			wins := [][2]int{{0, n}}
			for lo := 0; lo < 4; lo++ {
				for w := 0; w <= 9 && lo+w <= n; w++ {
					wins = append(wins, [2]int{lo, lo + w})
				}
			}
			for rowOn := uint64(0); rowOn < 8; rowOn++ {
				k := c.k
				k.rowOn = [4]uint64{rowOn, rowOn, rowOn, rowOn}
				for _, win := range wins {
					lo, hi := win[0], win[1]
					buf := make([]uint8, hi-lo+8)
					for i := range buf {
						buf[i] = 0xa5
					}
					pixRow(buf[:hi-lo], c.on[lo:hi], c.t1[lo:hi], c.b1[lo:hi], c.t2[lo:hi], c.b2[lo:hi], c.tG[lo:hi], c.bG[lo:hi], &k)
					for x := lo; x < hi; x++ {
						want := pixelRef(&k, c.on[x], c.t1[x], c.b1[x], c.t2[x], c.b2[x], c.tG[x], c.bG[x])
						if got := buf[x-lo]; got != want {
							t.Fatalf("%s, rowOn %d, pixels [%d,%d): pixel %d = %d, want %d", c.name, rowOn, lo, hi, x, got, want)
						}
					}
					for i, b := range buf[hi-lo:] {
						if b != 0xa5 {
							t.Fatalf("%s, pixels [%d,%d): wrote byte %d past the row", c.name, lo, hi, i)
						}
					}
				}
			}
		}
	})
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
				tm := float64(float64(g)*7.3) + float64(float64(i)*0.1)
				diffFrames(t, "concurrent", s.FrameAt(tm), frameAtRef(s, tm))
			}
		}(g)
	}
	wg.Wait()
}

// fillRef is lattice row iy of o as the seed computed each point of it:
// valueNoise's x-lerp of two hash01 lattice values, per pixel column.
func fillRef(o *octave, iy int64) []float64 {
	out := make([]float64, len(o.ix))
	for x, ix := range o.ix {
		v0, v1 := hash01(ix, iy, o.id), hash01(ix+1, iy, o.id)
		out[x] = float64(v0*o.omx[x]) + float64(v1*o.wx[x])
	}
	return out
}

// TestLatticeFillMatchesRef holds octave.fill, under each of its kernels,
// to the seed's per-point hash and lerp (fillRef) bit for bit: texture
// octaves over negative lattice columns, cells from 0.3 of a pixel wide
// (columns that skip lattice points) to over 64 pixels, at every width
// remainder mod 8; sprite bodies (octave.sprite); and hand-built columns
// near ±2^62 and at the top of int64, where column+1 wraps as it does in
// hashAt. Each row is written into a buffer with guard entries past its
// end, which must stay untouched. Under avx512 the cells at least half a
// pixel wide must take the kernel (plan), so the test cannot pass on the
// Go loop alone.
func TestLatticeFillMatchesRef(t *testing.T) {
	type layout struct {
		name   string
		o      *octave
		kernel bool // fillAVX512 must run it under pixAVX512, or must not
		either bool // either kernel may run it
	}
	var widths []int
	for w := 0; w <= 17; w++ {
		widths = append(widths, w)
	}
	widths = append(widths, 383, 384)
	build := func() []layout {
		var ls []layout
		for _, w := range widths {
			for _, c := range []struct {
				offX, inv float64
				kernel    bool
			}{
				{-517.25, 1 / 24.0, true},
				{-3.5, 1 / 7.44, true},
				{0, 1 / 64.5, true},
				{12.75, 1 / 130.0, true},
				{-40, 1.3, true},
				{5.5, 1.9, true},
				{0.5, 2.05, false},  // eight pixels need 16 or 17 lattice points
				{-9.25, 3.3, false}, // over 17
			} {
				o := new(octave)
				o.init(w, c.offX, c.inv, 0x51ed27^uint64(w))
				either := !c.kernel && (w < 8 || c.inv < 3) // fewer pixels may span few enough
				ls = append(ls, layout{fmt.Sprintf("init(%d, %v, %v)", w, c.offX, c.inv), o, c.kernel && w > 0, either})
			}
			for _, xa := range []int{0, 3, 97} {
				o := new(octave)
				o.sprite(xa, xa+w, 0x9e3779b9*uint64(xa+1))
				ls = append(ls, layout{fmt.Sprintf("sprite(%d, %d)", xa, xa+w), o, w > 0, false})
			}
			// the last set's last column is MaxInt64, whose column+1 wraps
			for _, base := range []int64{1 << 62, -1 << 62, math.MaxInt64 - int64(max(w-1, 0)*3/2)} {
				o := new(octave)
				o.id = uint64(base) ^ 7
				for x := 0; x < w; x++ {
					f := float64(x%5) / 5
					o.ix = append(o.ix, base+int64(x*3/2))
					o.wx, o.omx = append(o.wx, f), append(o.omx, 1-f)
				}
				o.top, o.bot = make([]float64, w), make([]float64, w)
				o.plan()
				ls = append(ls, layout{fmt.Sprintf("%d columns from %d", w, base), o, w > 0, false})
			}
		}
		return ls
	}
	forEachFillKernels(t, func(t *testing.T) {
		for _, l := range build() {
			if pixAVX512 && !l.either && l.kernel != (l.o.nlat > 0) {
				t.Fatalf("%s: plan chose the AVX-512 kernel %v, want %v", l.name, l.o.nlat > 0, l.kernel)
			}
			w := len(l.o.ix)
			buf := make([]float64, w+9)
			for _, iy := range []int64{-3, 0, 1, 41, 1 << 40} {
				for i := range buf {
					buf[i] = -7
				}
				l.o.fill(buf[:w], iy)
				for x, want := range fillRef(l.o, iy) {
					if got := buf[x]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, row %d: column %d = %v, oracle %v", l.name, iy, x, got, want)
					}
				}
				for i, v := range buf[w:] {
					if v != -7 {
						t.Fatalf("%s, row %d: wrote entry %d past the row", l.name, iy, i)
					}
				}
			}
		}
	})
}

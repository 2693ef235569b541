// Package vidgen synthesises deterministic live-stream video.
//
// The paper evaluates on nine categories of recorded live streams (five
// Twitch game/IRL categories and four YouTube 4K categories). Those
// recordings are not redistributable, so vidgen substitutes a procedural
// generator whose per-category parameters reproduce the properties the
// paper's results depend on:
//
//   - category-specific texture statistics (what makes a content-aware SR
//     model beat a generic one — Figs 2c, 9, 10);
//   - motion level (what makes Fortnite the hardest stream and drives the
//     encoder's rate-distortion operating point — §8.1);
//   - scene-change schedules (what drives the content-adaptive trainer's
//     suspend/resume cycle — Figs 16, 18, 19);
//   - session-to-session drift (why pre-training on yesterday's stream
//     underperforms online learning — Fig 2c).
//
// All output is a pure function of (category, session seed, time), so every
// experiment is reproducible bit-for-bit.
package vidgen

import (
	"fmt"
	"math"
	"sync"

	"livenas/internal/frame"
)

// Category enumerates the nine stream-content categories of the paper's
// evaluation (§8, Figures 9 and 10).
type Category int

const (
	// Twitch top-5 categories (ingest 360p/540p, target 1080p).
	LeagueOfLegends Category = iota
	JustChatting
	WorldOfWarcraft
	EscapeFromTarkov
	Fortnite
	// YouTube 4K categories (ingest 720p/1080p, target 4K).
	Podcast
	Sports
	LiveEvent
	FoodCooking

	numCategories
)

// Categories lists every category in declaration order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// TwitchCategories returns the five Twitch categories of Figure 9.
func TwitchCategories() []Category {
	return []Category{LeagueOfLegends, JustChatting, WorldOfWarcraft, EscapeFromTarkov, Fortnite}
}

// YouTubeCategories returns the four YouTube 4K categories of Figure 10.
func YouTubeCategories() []Category {
	return []Category{Podcast, Sports, LiveEvent, FoodCooking}
}

// String returns the abbreviation the paper uses in its figures.
func (c Category) String() string {
	switch c {
	case LeagueOfLegends:
		return "LoL"
	case JustChatting:
		return "JC"
	case WorldOfWarcraft:
		return "WoW"
	case EscapeFromTarkov:
		return "EFT"
	case Fortnite:
		return "FN"
	case Podcast:
		return "PC"
	case Sports:
		return "SP"
	case LiveEvent:
		return "LE"
	case FoodCooking:
		return "FC"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Params captures the per-category generation profile.
type Params struct {
	// Motion is the scene scroll speed in native pixels/second per 1080 rows
	// of output; high-motion categories compress worse at equal bitrate.
	Motion float64
	// Detail in (0,1] scales the amplitude of the high-frequency texture
	// octaves; more detail means more for super-resolution to recover.
	Detail float64
	// TexScale is the base feature size of the texture field in pixels.
	TexScale float64
	// SceneMean is the mean seconds between scene changes (0 disables them).
	SceneMean float64
	// Sprites is the number of independently moving foreground objects.
	Sprites int
	// HUD adds a static high-contrast overlay band (game UI / stream chrome):
	// static content that online training saturates on quickly.
	HUD bool
}

// ParamsFor returns the generation profile of a category.
func ParamsFor(c Category) Params {
	switch c {
	case LeagueOfLegends:
		return Params{Motion: 120, Detail: 0.75, TexScale: 36, SceneMean: 45, Sprites: 8, HUD: true}
	case JustChatting:
		return Params{Motion: 18, Detail: 0.55, TexScale: 64, SceneMean: 120, Sprites: 2, HUD: true}
	case WorldOfWarcraft:
		return Params{Motion: 90, Detail: 0.7, TexScale: 40, SceneMean: 60, Sprites: 6, HUD: true}
	case EscapeFromTarkov:
		return Params{Motion: 150, Detail: 0.8, TexScale: 30, SceneMean: 50, Sprites: 5, HUD: true}
	case Fortnite:
		return Params{Motion: 260, Detail: 0.9, TexScale: 24, SceneMean: 25, Sprites: 10, HUD: true}
	case Podcast:
		return Params{Motion: 10, Detail: 0.5, TexScale: 72, SceneMean: 180, Sprites: 1, HUD: false}
	case Sports:
		return Params{Motion: 170, Detail: 0.8, TexScale: 32, SceneMean: 40, Sprites: 12, HUD: true}
	case LiveEvent:
		return Params{Motion: 60, Detail: 0.65, TexScale: 44, SceneMean: 70, Sprites: 4, HUD: false}
	case FoodCooking:
		return Params{Motion: 35, Detail: 0.7, TexScale: 48, SceneMean: 90, Sprites: 3, HUD: false}
	default:
		return Params{Motion: 60, Detail: 0.6, TexScale: 48, SceneMean: 60, Sprites: 4}
	}
}

// splitMix64 is a small, fast, well-mixed hash used for all lattice noise;
// it keeps frame synthesis allocation-free and deterministic.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps an integer lattice point (plus a stream id) to [0,1).
func hash01(x, y int64, id uint64) float64 {
	h := splitMix64(uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ id)
	return float64(h>>11) / float64(1<<53)
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// valueNoise evaluates smoothed lattice value noise at (x, y) for stream id.
func valueNoise(x, y float64, id uint64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := smoothstep(x-x0), smoothstep(y-y0)
	ix, iy := int64(x0), int64(y0)
	v00 := hash01(ix, iy, id)
	v10 := hash01(ix+1, iy, id)
	v01 := hash01(ix, iy+1, id)
	v11 := hash01(ix+1, iy+1, id)
	top := v00*(1-fx) + v10*fx
	bot := v01*(1-fx) + v11*fx
	return top*(1-fy) + bot*fy
}

// scene describes one continuous shot between two scene changes.
type scene struct {
	start    float64 // seconds
	seed     uint64  // texture stream id
	dirX     float64 // scroll direction (unit-ish vector)
	dirY     float64
	base     float64 // mean luminance 0..255
	contrast float64 // texture amplitude multiplier
	warp     float64 // nonlinear tone curve strength, texture "style"
}

// Source generates frames for one live-stream session.
//
// A Source is safe for concurrent FrameAt calls: it is immutable after
// construction.
type Source struct {
	Cat    Category
	P      Params
	W, H   int
	seed   uint64
	scenes []scene // sorted by start time
	dur    float64 // scene schedule horizon (seconds)
}

// NewSource creates a session of the given category rendered at w x h native
// resolution. seed selects the session (use different seeds for "previous
// day's stream" style experiments). The scene-change schedule covers
// durSec seconds; FrameAt beyond the horizon reuses the last scene.
func NewSource(cat Category, w, h int, seed int64, durSec float64) *Source {
	p := ParamsFor(cat)
	s := &Source{Cat: cat, P: p, W: w, H: h, seed: uint64(seed)*0x9e3779b97f4a7c15 + uint64(cat), dur: durSec}
	s.scenes = buildSchedule(s.seed, p, durSec)
	return s
}

// buildSchedule lays out scene boundaries with exponential-ish gaps around
// SceneMean, derived deterministically from the session seed.
func buildSchedule(seed uint64, p Params, dur float64) []scene {
	var scenes []scene
	t := 0.0
	i := uint64(0)
	for {
		sc := newScene(seed, i, t)
		scenes = append(scenes, sc)
		if p.SceneMean <= 0 {
			break
		}
		// Deterministic pseudo-exponential gap in [0.35, 2.6] * mean.
		u := hash01(int64(i), 7, seed^0xabcdef)
		gap := p.SceneMean * (0.35 + 2.25*u)
		t += gap
		i++
		if t >= dur {
			break
		}
	}
	return scenes
}

func newScene(seed, idx uint64, start float64) scene {
	id := splitMix64(seed ^ (idx+1)*0x85ebca6b)
	ang := hash01(int64(idx), 1, seed) * 2 * math.Pi
	return scene{
		start:    start,
		seed:     id,
		dirX:     math.Cos(ang),
		dirY:     math.Sin(ang),
		base:     70 + 120*hash01(int64(idx), 2, seed),
		contrast: 0.6 + 0.8*hash01(int64(idx), 3, seed),
		warp:     0.5 + 1.5*hash01(int64(idx), 4, seed),
	}
}

// sceneAt returns the active scene and its index at time t.
func (s *Source) sceneAt(t float64) (scene, int) {
	idx := 0
	for i := len(s.scenes) - 1; i >= 0; i-- {
		if t >= s.scenes[i].start {
			idx = i
			break
		}
	}
	return s.scenes[idx], idx
}

// SceneIndexAt reports which scene (0-based) is on screen at time t seconds.
func (s *Source) SceneIndexAt(t float64) int {
	_, i := s.sceneAt(t)
	return i
}

// SceneChanges lists the scene-change instants (seconds, excluding t=0) up
// to the schedule horizon. The content-adaptive trainer experiments use this
// as ground truth.
func (s *Source) SceneChanges() []float64 {
	var out []float64
	for _, sc := range s.scenes[1:] {
		out = append(out, sc.start)
	}
	return out
}

// octave holds one value-noise octave's tables for one frame: per pixel
// column the lattice column and smoothstep weights, and the two lattice rows
// bracketing the current pixel row, already hashed and lerped along x. A
// pixel is then one y-lerp of top and bot. Every float expression is
// valueNoise's, hoisted out of the pixel loop but never reshaped, so frames
// are bit-identical to the per-pixel renderer kept in ref_test.go.
type octave struct {
	id       uint64
	inv      float64
	ix       []int64   // lattice column of each pixel column
	wx, omx  []float64 // smoothstep of the in-cell x offset, and 1 minus it
	top, bot []float64 // lattice rows iy and iy+1
	iy       int64
	valid    bool // top and bot hold rows iy and iy+1
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (o *octave) init(w int, offX, inv float64, id uint64) {
	o.id, o.inv, o.valid = id, inv, false
	o.ix, o.wx, o.omx = grow(o.ix, w), grow(o.wx, w), grow(o.omx, w)
	o.top, o.bot = grow(o.top, w), grow(o.bot, w)
	for x := range o.ix {
		fx := (float64(x) + offX) * inv
		x0 := math.Floor(fx)
		f := smoothstep(fx - x0)
		o.ix[x], o.wx[x], o.omx[x] = int64(x0), f, 1-f
	}
}

// row moves the octave to pixel-row coordinate fy and returns the y weights.
// Consecutive pixel rows share a lattice row or step to the next one at all
// but the smallest canvases, so most calls hash nothing or one row.
func (o *octave) row(fy float64) (wy, omy float64) {
	fy *= o.inv
	y0 := math.Floor(fy)
	wy = smoothstep(fy - y0)
	switch iy := int64(y0); {
	case o.valid && iy == o.iy:
	case o.valid && iy == o.iy+1:
		o.top, o.bot = o.bot, o.top
		o.fill(o.bot, iy+1)
		o.iy = iy
	default:
		o.fill(o.top, iy)
		o.fill(o.bot, iy+1)
		o.iy, o.valid = iy, true
	}
	return wy, 1 - wy
}

// fill writes lattice row iy, lerped along x, into dst, hashing each lattice
// point once however many pixel columns it spans.
func (o *octave) fill(dst []float64, iy int64) {
	var v0, v1 float64
	for x, ix := range o.ix {
		switch {
		case x > 0 && ix == o.ix[x-1]:
		case x > 0 && ix == o.ix[x-1]+1:
			v0, v1 = v1, hash01(ix+1, iy, o.id)
		default:
			v0, v1 = hash01(ix, iy, o.id), hash01(ix+1, iy, o.id)
		}
		dst[x] = v0*o.omx[x] + v1*o.wx[x]
	}
}

// Glyph styles, as bits: a pixel is inked when its column's x extent and its
// row's y extent both cover the style of the glyph in its cell.
const (
	glyphHBar uint8 = 1 << iota
	glyphVBar
	glyphDot
)

func styleBits(hbar, vbar, dot bool) (m uint8) {
	if hbar {
		m |= glyphHBar
	}
	if vbar {
		m |= glyphVBar
	}
	if dot {
		m |= glyphDot
	}
	return m
}

// renderScratch is FrameAt's working set. It is pooled, never kept on the
// Source, which stays immutable and safe for concurrent FrameAt calls.
type renderScratch struct {
	oct   [3]octave
	cell  []int64 // glyph-lattice column of each pixel column
	colOn []uint8 // styles whose x extent covers the column
	on    []uint8 // colOn masked by the style of the column's glyph on the current glyph row
}

var scratchPool = sync.Pool{New: func() any { return new(renderScratch) }}

// FrameAt renders the native-resolution frame at time t seconds.
func (s *Source) FrameAt(t float64) *frame.Frame {
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
	// Stroke extents along one axis, measured from the cell origin: long
	// spans the cell less a margin, thin is a band starting part-way in. A
	// horizontal bar is long in x and thin in y, a vertical bar the reverse,
	// a dot thin (and half again as wide) in both.
	long := func(l float64) bool { return l > stroke && l < glyphCell-stroke }
	thin := func(l, at, width float64) bool { return l >= glyphCell*at && l < glyphCell*at+width }

	w := s.W
	rs := scratchPool.Get().(*renderScratch)
	defer scratchPool.Put(rs)
	o1, o2, oG := &rs.oct[0], &rs.oct[1], &rs.oct[2]
	o1.init(w, offX, inv1, sc.seed)
	o2.init(w, offX, inv2, sc.seed^1)
	oG.init(w, offX, invG, sc.seed^2)
	rs.cell, rs.colOn, rs.on = grow(rs.cell, w), grow(rs.colOn, w), grow(rs.on, w)
	for x := range rs.cell {
		fx := float64(x) + offX
		gx := math.Floor(fx / glyphCell)
		lx := fx - gx*glyphCell
		rs.cell[x] = int64(gx)
		rs.colOn[x] = styleBits(long(lx), thin(lx, 0.5, stroke), thin(lx, 0.4, 1.5*stroke))
	}
	var glyphRow int64
	haveGlyphRow := false

	for y := 0; y < s.H; y++ {
		fy := float64(y) + offY
		wy1, omy1 := o1.row(fy)
		wy2, omy2 := o2.row(fy)
		wyG, omyG := oG.row(fy)
		// Glyph marks: per-lattice-cell pseudo-random text-like strokes
		// anchored to scene coordinates (they scroll with the world).
		gy := math.Floor(fy / glyphCell)
		ly := fy - gy*glyphCell
		rowOn := styleBits(thin(ly, 0.4, stroke), long(ly), thin(ly, 0.4, 1.5*stroke))
		if !haveGlyphRow || int64(gy) != glyphRow {
			glyphRow, haveGlyphRow = int64(gy), true
			var style uint8
			for x, c := range rs.cell {
				if x == 0 || c != rs.cell[x-1] {
					style = 0
					if hash01(c, glyphRow, sc.seed^3) < glyphDensity {
						switch st := hash01(c, glyphRow, sc.seed^4); {
						case st < 0.4:
							style = glyphHBar
						case st < 0.8:
							style = glyphVBar
						default:
							style = glyphDot
						}
					}
				}
				rs.on[x] = style & rs.colOn[x]
			}
		}

		row := f.Pix[y*w:][:w]
		t1, b1, t2, b2, tG, bG := o1.top[:w], o1.bot[:w], o2.top[:w], o2.bot[:w], oG.top[:w], oG.bot[:w]
		on := rs.on[:w]
		for x := range row {
			v := base
			n1 := t1[x]*omy1 + b1[x]*wy1 - 0.5
			n2 := t2[x]*omy2 + b2[x]*wy2 - 0.5
			v += amp1 * (math.Abs(n1)*2 - 0.5) * sc.warp
			v += amp2 * n2
			// Posterise to the scene palette: sharp edges between flats.
			v = math.Round(v/step) * step
			if on[x]&rowOn != 0 {
				if v > 127 {
					v -= 90
				} else {
					v += 90
				}
			}
			// Grain.
			v += grain * (tG[x]*omyG + bG[x]*wyG - 0.5)
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

// drawSprites overlays moving high-contrast objects (players, the streamer's
// webcam, a ball...). Their count and speed follow the category profile.
func (s *Source) drawSprites(f *frame.Frame, sc scene, t float64) {
	p := s.P
	for i := 0; i < p.Sprites; i++ {
		id := sc.seed ^ uint64(i+1)*0x9e3779b9
		w := int(float64(s.W) * (0.04 + 0.08*hash01(int64(i), 11, id)))
		h := int(float64(s.H) * (0.05 + 0.1*hash01(int64(i), 12, id)))
		// Lissajous-style trajectories, speed tied to category motion.
		sp := (0.2 + hash01(int64(i), 13, id)) * p.Motion / 100
		phx := hash01(int64(i), 14, id) * 2 * math.Pi
		phy := hash01(int64(i), 15, id) * 2 * math.Pi
		cx := (0.5 + 0.45*math.Sin(sp*t+phx)) * float64(s.W)
		cy := (0.5 + 0.42*math.Sin(sp*t*1.3+phy)) * float64(s.H)
		lum := uint8(40 + 180*hash01(int64(i), 16, id))
		x0, y0 := int(cx)-w/2, int(cy)-h/2
		for y := y0; y < y0+h; y++ {
			if y < 0 || y >= s.H {
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
					row[x] = uint8(float64(lum) * (0.6 + 0.4*n))
				}
			}
		}
	}
}

// drawHUD renders a static overlay band: stream chrome that never moves.
func (s *Source) drawHUD(f *frame.Frame) {
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

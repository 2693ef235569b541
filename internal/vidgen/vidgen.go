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

	"livenas/internal/cpu"
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
func hash01(x, y int64, id uint64) float64 { return hashAt(x, rowKey(y, id)) }

// rowKey is the part of hash01's input that depends on the lattice row y
// and the stream id only, so a loop along one row computes it once.
func rowKey(y int64, id uint64) uint64 { return uint64(y)*0xc2b2ae3d27d4eb4f ^ id }

// hashAt is hash01 at column x of the row whose rowKey is k.
func hashAt(x int64, k uint64) float64 {
	h := splitMix64(uint64(x)*0x9e3779b97f4a7c15 ^ k)
	return float64(float64(h>>11) / float64(1<<53))
}

func smoothstep(t float64) float64 { return t * t * (3 - float64(2*t)) }

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
		gap := float64(p.SceneMean * (0.35 + float64(2.25*u)))
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
		base:     70 + float64(120*hash01(int64(idx), 2, seed)),
		contrast: 0.6 + float64(0.8*hash01(int64(idx), 3, seed)),
		warp:     0.5 + float64(1.5*hash01(int64(idx), 4, seed)),
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
	// nlat is the number of lattice columns a row spans, ix[0] to
	// ix[len-1]+1, where fill runs fillAVX512, else 0; lat is that
	// kernel's table of their hashes, with 16 entries of slack.
	nlat int
	lat  []float64
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
		fx := float64((float64(x) + offX) * inv)
		x0 := math.Floor(fx)
		f := float64(smoothstep(fx - x0))
		o.ix[x], o.wx[x], o.omx[x] = int64(x0), f, 1-f
	}
	o.plan()
}

// sprite sets o up for pixel columns xa to xb-1 of a sprite body, whose
// noise is valueNoise(float64(x)/7, float64(y)/7, id): the lattice column
// is float64(x)/7 as there, not a product with a reciprocal, which would
// round differently. Read its rows through lattice, at float64(y)/7.
func (o *octave) sprite(xa, xb int, id uint64) {
	n := xb - xa
	o.id, o.valid = id, false
	o.ix, o.wx, o.omx = grow(o.ix, n), grow(o.wx, n), grow(o.omx, n)
	o.top, o.bot = grow(o.top, n), grow(o.bot, n)
	for j := range o.ix {
		fx := float64(xa+j) / 7
		x0 := math.Floor(fx)
		f := float64(smoothstep(fx - x0))
		o.ix[j], o.wx[j], o.omx[j] = int64(x0), f, 1-f
	}
	o.plan()
}

// plan chooses fill's kernel for the columns in ix: fillAVX512 when
// pixAVX512 and its 16-point window holds every eight consecutive pixels'
// lattice points, that is when ix never falls and ix[x+7]+1 - ix[x] <= 15
// (true at every cell at least half a pixel wide); else fillGo. The
// differences are taken as uint64 once ix is known not to fall, so they
// are exact whatever the columns.
func (o *octave) plan() {
	o.nlat = 0
	ix := o.ix
	if !pixAVX512 || len(ix) == 0 {
		return
	}
	for x := 1; x < len(ix); x++ {
		if ix[x] < ix[x-1] || uint64(ix[x]-ix[max(x-7, 0)]) > 14 {
			return
		}
	}
	o.nlat = int(ix[len(ix)-1]-ix[0]) + 2
	o.lat = grow(o.lat, o.nlat+16)
}

// row moves the octave to pixel-row coordinate fy and returns the y weights.
func (o *octave) row(fy float64) (wy, omy float64) { return o.lattice(fy * o.inv) }

// lattice moves the octave to lattice-row coordinate fy and returns the y
// weights. Consecutive pixel rows share a lattice row or step to the next
// one at all but the smallest canvases, so most calls hash nothing or one
// row.
func (o *octave) lattice(fy float64) (wy, omy float64) {
	y0 := math.Floor(fy)
	wy = float64(smoothstep(float64(fy) - y0))
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

// fill writes lattice row iy, lerped along x, into dst, with the kernel
// plan chose. The column tables are cut to len(dst) and the lattice table
// to what fillAVX512 reads, so a short one panics here, not in the kernel.
func (o *octave) fill(dst []float64, iy int64) {
	w := len(dst)
	ix, omx, wx := o.ix[:w], o.omx[:w], o.wx[:w]
	k := rowKey(iy, o.id)
	if o.nlat > 0 {
		fillAVX512(dst, ix, omx, wx, o.lat[:o.nlat+16], o.nlat, k)
		return
	}
	fillGo(dst, ix, omx, wx, k)
}

// fillGo writes the lattice row whose rowKey is k, lerped along x at the
// columns ix with weights omx and wx, into dst, hashing each lattice point
// once however many pixel columns it spans.
func fillGo(dst []float64, ix []int64, omx, wx []float64, k uint64) {
	var v0, v1 float64
	ix, omx, wx = ix[:len(dst)], omx[:len(dst)], wx[:len(dst)]
	for x, c := range ix {
		switch {
		case x > 0 && c == ix[x-1]:
		case x > 0 && c == ix[x-1]+1:
			v0, v1 = v1, hashAt(c+1, k)
		default:
			v0, v1 = hashAt(c, k), hashAt(c+1, k)
		}
		dst[x] = float64(v0*omx[x]) + float64(v1*wx[x])
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
	spr   octave  // the current sprite body's noise tables
	cell  []int64 // glyph-lattice column of each pixel column
	colOn []uint8 // styles whose x extent covers the column
	on    []uint8 // colOn masked by the style of the column's glyph on the current glyph row
	lanes pixLanes
}

// pixLanes holds the scalar operands of the pixel body, each broadcast to
// four lanes: the AVX2 row kernel reads them as memory operands, since
// with its own constants and temporaries they outnumber the YMM registers,
// and the AVX-512 kernel broadcasts each one's first lane (.BCST). The
// first six are the frame's, set once; the rest are the current row's.
type pixLanes struct {
	_                                   [0]func() // not comparable, so no equality function is linked for it
	base, amp1, warp, amp2, step, grain [4]float64
	omy1, wy1, omy2, wy2, omyG, wyG     [4]float64
	rowOn                               [4]uint64 // the row's glyph styles, matched against on[x]
}

func bcast(dst *[4]float64, v float64) { *dst = [4]float64{v, v, v, v} }

// pixAVX512 and pixAVX2 select FrameAt's kernels once, from the module's
// one CPU probe (both false off amd64 and under purego). With pixAVX512
// the pixel row and the lattice rows run AVX-512 kernels; else, with
// pixAVX2, the pixel row's whole quads run the AVX2 kernel. They are
// flags, not function values, like the codec's useAVX2.
var (
	pixAVX512 = cpu.AVX512
	pixAVX2   = cpu.AVX2
)

// pixRow renders one row of the pixel body: the AVX-512 kernel over the
// whole row when pixAVX512, else the AVX2 kernel over the first
// len(row) &^ 3 pixels when pixAVX2 and the Go twin over the rest. Every
// other slice must be at least len(row) long: they are cut to it here, so
// a short one panics before a kernel could read past its end.
func pixRow(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes) {
	w := len(row)
	on, t1, b1, t2, b2, tG, bG = on[:w], t1[:w], b1[:w], t2[:w], b2[:w], tG[:w], bG[:w]
	x0 := 0
	switch {
	case pixAVX512:
		pixRowAVX512(row, on, t1, b1, t2, b2, tG, bG, k)
		return
	case pixAVX2:
		x0 = w &^ 3
		pixRowAVX2(row[:x0], on, t1, b1, t2, b2, tG, bG, k)
	}
	pixRowGo(row, on, t1, b1, t2, b2, tG, bG, k, x0)
}

// pixRowGo is the pixel body in Go over row[x0:]: the two texture octaves
// folded through the warp, posterised, the glyph toggle, grain, clamp and
// store, each pixel one y-lerp per octave of the rows its octave tables
// hold.
func pixRowGo(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes, x0 int) {
	base, amp1, warp, amp2, step, grain := k.base[0], k.amp1[0], k.warp[0], k.amp2[0], k.step[0], k.grain[0]
	omy1, wy1, omy2, wy2, omyG, wyG := k.omy1[0], k.wy1[0], k.omy2[0], k.wy2[0], k.omyG[0], k.wyG[0]
	rowOn := uint8(k.rowOn[0])
	w := len(row)
	on, t1, b1, t2, b2, tG, bG = on[:w], t1[:w], b1[:w], t2[:w], b2[:w], tG[:w], bG[:w]
	for x := x0; x < w; x++ {
		v := base
		n1 := float64(t1[x]*omy1) + float64(b1[x]*wy1) - 0.5
		n2 := float64(t2[x]*omy2) + float64(b2[x]*wy2) - 0.5
		v += float64(amp1 * (float64(math.Abs(n1)*2) - 0.5) * warp)
		v += float64(amp2 * n2)
		// Posterise to the scene palette: sharp edges between flats.
		v = float64(math.Round(v/step) * step)
		if on[x]&rowOn != 0 {
			if v > 127 {
				v -= 90
			} else {
				v += 90
			}
		}
		// Grain.
		v += float64(grain * (float64(tG[x]*omyG) + float64(bG[x]*wyG) - 0.5))
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		row[x] = uint8(v)
	}
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
	step := 18 + float64(22*hash01(11, 5, sc.seed))
	// Glyph lattice parameters: cell size, stroke width and mark density.
	glyphCell := (14 + float64(10*hash01(13, 6, sc.seed))) * rel
	// Glyph strokes stay at pixel scale regardless of resolution: text and
	// UI render at pixel precision on any canvas, which is exactly the
	// detail class super-resolution recovers.
	stroke := 2.0
	glyphDensity := 0.25 + float64(0.5*p.Detail)
	// Stroke extents along one axis, measured from the cell origin: long
	// spans the cell less a margin, thin is a band starting part-way in. A
	// horizontal bar is long in x and thin in y, a vertical bar the reverse,
	// a dot thin (and half again as wide) in both.
	long := func(l float64) bool { return l > stroke && l < float64(glyphCell)-stroke }
	thin := func(l, at, width float64) bool { return l >= glyphCell*at && l < float64(glyphCell*at)+width }

	w := s.W
	rs := scratchPool.Get().(*renderScratch)
	defer scratchPool.Put(rs)
	o1, o2, oG := &rs.oct[0], &rs.oct[1], &rs.oct[2]
	o1.init(w, offX, inv1, sc.seed)
	o2.init(w, offX, inv2, sc.seed^1)
	oG.init(w, offX, invG, sc.seed^2)
	rs.cell, rs.colOn, rs.on = grow(rs.cell, w), grow(rs.colOn, w), grow(rs.on, w)
	for x := range rs.cell {
		fx := float64(x) + float64(offX)
		gx := math.Floor(fx / glyphCell)
		lx := fx - float64(gx*glyphCell)
		rs.cell[x] = int64(gx)
		rs.colOn[x] = styleBits(long(lx), thin(lx, 0.5, stroke), thin(lx, 0.4, 1.5*stroke))
	}
	var glyphRow int64
	haveGlyphRow := false
	k := &rs.lanes
	bcast(&k.base, base)
	bcast(&k.amp1, amp1)
	bcast(&k.warp, sc.warp)
	bcast(&k.amp2, amp2)
	bcast(&k.step, step)
	bcast(&k.grain, grain)

	// The HUD band's rows are drawn over whole, so the texture and the
	// sprites stop at its top.
	top := s.hudTop()
	for y := 0; y < top; y++ {
		fy := float64(y) + float64(offY)
		wy1, omy1 := o1.row(fy)
		wy2, omy2 := o2.row(fy)
		wyG, omyG := oG.row(fy)
		// Glyph marks: per-lattice-cell pseudo-random text-like strokes
		// anchored to scene coordinates (they scroll with the world).
		gy := math.Floor(fy / glyphCell)
		ly := fy - float64(gy*glyphCell)
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

		bcast(&k.omy1, omy1)
		bcast(&k.wy1, wy1)
		bcast(&k.omy2, omy2)
		bcast(&k.wy2, wy2)
		bcast(&k.omyG, omyG)
		bcast(&k.wyG, wyG)
		r := uint64(rowOn)
		k.rowOn = [4]uint64{r, r, r, r}
		pixRow(f.Pix[y*w:][:w], rs.on, o1.top, o1.bot, o2.top, o2.bot, oG.top, oG.bot, k)
	}

	s.drawSprites(f, sc, t, top, &rs.spr)
	if top < s.H {
		s.drawHUD(f, top)
	}
	return f
}

// hudTop returns the first row of the HUD band, or s.H when the source
// draws none (no HUD, or a frame under 24 rows).
func (s *Source) hudTop() int {
	if hudH := s.H / 12; s.P.HUD && hudH >= 2 {
		return s.H - hudH
	}
	return s.H
}

// drawSprites overlays moving high-contrast objects (players, the streamer's
// webcam, a ball...) on the rows above top. Their count and speed follow the
// category profile. A sprite's body is value noise at a fixed 1/7 scale,
// read through o's column and lattice-row tables as the texture octaves
// are: every float expression is valueNoise's, so the bytes are those of
// the per-pixel seed kept in ref_test.go.
func (s *Source) drawSprites(f *frame.Frame, sc scene, t float64, top int, o *octave) {
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
		// The outline is columns x0 and x1 and rows y0 and y1; the body is
		// what lies inside it. Both are clipped to the frame above top.
		x0, y0 := int(cx)-w/2, int(cy)-h/2
		x1, y1 := x0+w-1, y0+h-1
		xa, xb := max(x0, 0), min(x1+1, s.W)
		if xa >= xb {
			continue
		}
		ba, bb := max(x0+1, 0), min(x1, s.W) // body columns
		if ba < bb {
			o.sprite(ba, bb, id)
		}
		for y := max(y0, 0); y < min(y1+1, top); y++ {
			row := f.Pix[y*s.W:][:s.W]
			if y == y0 || y == y1 {
				for x := xa; x < xb; x++ {
					row[x] = 235
				}
				continue
			}
			if x0 >= 0 {
				row[x0] = 235
			}
			if x1 < s.W {
				row[x1] = 235
			}
			if ba >= bb {
				continue
			}
			wy, omy := o.lattice(float64(y) / 7)
			body := row[ba:bb]
			tr, br := o.top[:len(body)], o.bot[:len(body)]
			for j := range body {
				n := float64(tr[j]*omy) + float64(br[j]*wy)
				body[j] = uint8(float64(lum) * (0.6 + float64(0.4*n)))
			}
		}
	}
}

// drawHUD renders a static overlay band, rows y0 to the bottom: stream
// chrome that never moves. Alternating glyph-like blocks, crisp verticals
// the encoder blurs at low bitrate and SR can re-sharpen: every row of the
// band is one of two patterns, by the parity of its block row, so each is
// filled once and copied into the rows that repeat it.
func (s *Source) drawHUD(f *frame.Frame, y0 int) {
	hudH := s.H - y0
	var pattern [2][]uint8 // the first row of each parity
	for y := y0; y < s.H; y++ {
		row := f.Pix[y*s.W:][:s.W]
		par := ((y - y0) / (hudH/4 + 1)) % 2
		if pattern[par] != nil {
			copy(row, pattern[par])
			continue
		}
		for x := range row {
			if (x/(hudH/2)+par)%2 == 0 {
				row[x] = 28
			} else {
				row[x] = 222
			}
		}
		pattern[par] = row
	}
}

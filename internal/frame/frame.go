// Package frame provides the raw-video building blocks used throughout
// LiveNAS-Go: single-plane luminance frames, bilinear rescaling at arbitrary
// integer or fractional factors, cropping and pasting, and the fixed 120x120
// patch grid that the LiveNAS patch sampler (§5.2 of the paper) operates on.
//
// Frames are luma-only. Super-resolution networks in the NAS line train and
// evaluate on the luminance channel; PSNR/SSIM in our pipeline are therefore
// luma metrics, which matches the paper's methodology up to a constant.
//
// The bilinear resize is the skip connection of every SR forward and the
// baseline upsample of every session, so its two row loops have AVX2 forms
// (resize_amd64.s), chosen once at init from cpu.AVX2 and bit-identical to
// the Go loops they stand in for.
//
// Downscale's box average is integer arithmetic. For a block sum s of
// n = factor² bytes, the float rounding clamp8(s/n) equals (2s+n)/(2n) in
// integer division: s/n lies in [0, 255], so only clamp8's round half up
// acts, and s/n is never within float64 error of a rounding boundary it
// does not sit on exactly.
package frame

import (
	"fmt"
	"sync"
)

// PatchSize is the side length, in pixels, of a LiveNAS training patch
// (§5.2: "LiveNAS client sends training patches of size 120x120 pixels").
const PatchSize = 120

// Frame is a single-plane 8-bit luminance image. Pix holds W*H samples in
// row-major order. The zero value is an empty frame.
type Frame struct {
	W, H int
	Pix  []uint8
}

// New returns a zeroed (black) frame of the given dimensions.
func New(w, h int) *Frame {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: negative dimensions %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the sample at (x, y). It performs no bounds checking beyond the
// slice's own; callers index within [0,W)x[0,H).
func (f *Frame) At(x, y int) uint8 { return f.Pix[y*f.W+x] }

// Set writes the sample at (x, y).
func (f *Frame) Set(x, y int, v uint8) { f.Pix[y*f.W+x] = v }

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, Pix: make([]uint8, len(f.Pix))}
	copy(g.Pix, f.Pix)
	return g
}

// Bytes returns the raw (uncompressed) size of the frame in bytes.
func (f *Frame) Bytes() int { return len(f.Pix) }

// Crop returns a new frame holding the w x h region of f whose top-left
// corner is (x, y). The region is clipped to the frame bounds; samples
// outside f are zero.
func (f *Frame) Crop(x, y, w, h int) *Frame {
	out := New(w, h)
	out.Paste(f, -x, -y)
	return out
}

// Paste copies src into f with src's top-left corner at (x, y), clipping to
// f's bounds. The rectangle is clipped once and moved a row at a time.
func (f *Frame) Paste(src *Frame, x, y int) {
	c0 := max(0, -x)
	n := min(src.W, f.W-x) - c0
	if n <= 0 {
		return
	}
	for r := max(0, -y); r < min(src.H, f.H-y); r++ {
		d, s := (y+r)*f.W+x+c0, r*src.W+c0
		copy(f.Pix[d:d+n], src.Pix[s:s+n])
	}
}

// clamp8 converts a float sample to the [0,255] uint8 range.
func clamp8(v float64) uint8 {
	switch {
	case v <= 0:
		return 0
	case v >= 255:
		return 255
	default:
		return uint8(v + 0.5)
	}
}

// resizeTabs is the per-call scratch of ResizeBilinearRows: one coefficient
// table per output column (both blend weights, so 1-fx is computed once),
// the source row being lerped widened to float64 (src, the AVX2 kernel's
// gather base), plus the horizontally interpolated top and bottom source
// rows (hrow, labelled with the source row they hold in hsrc). The backing
// arrays are recycled through a sync.Pool so steady-state resizes (every
// frame, every patch) do not allocate; the coefficients themselves are
// recomputed per call with arithmetic identical to the original per-pixel
// computation, so outputs are bit-for-bit unchanged.
type resizeTabs struct {
	x0, x1   []int32
	omfx, fx []float64
	src      []float64
	hrow     [2][]float64
	hsrc     [2]int
}

var resizePool = sync.Pool{New: func() any { return new(resizeTabs) }}

// ensure sizes the tables for w output and sw source columns.
func (t *resizeTabs) ensure(w, sw int) {
	if cap(t.x0) < w {
		t.x0 = make([]int32, w)
		t.x1 = make([]int32, w)
		t.omfx = make([]float64, w)
		t.fx = make([]float64, w)
		t.hrow = [2][]float64{make([]float64, w), make([]float64, w)}
	}
	if cap(t.src) < sw {
		t.src = make([]float64, sw)
	}
	t.x0, t.x1, t.omfx, t.fx = t.x0[:w], t.x1[:w], t.omfx[:w], t.fx[:w]
	t.hrow[0], t.hrow[1] = t.hrow[0][:w], t.hrow[1][:w]
	t.src = t.src[:sw]
	t.hsrc = [2]int{-1, -1}
}

// axisPos is the half-pixel-centred source index pair and blend fraction of
// output position i on an axis of srcN source samples, scale = srcN/n.
func axisPos(i int, scale float64, srcN int) (p0, p1 int, fr float64) {
	src := float64((float64(i)+0.5)*scale) - 0.5
	p0 = int(src)
	if src < 0 {
		src, p0 = 0, 0
	}
	return p0, min(p0+1, srcN-1), src - float64(p0)
}

// hlerp returns the hrow slot holding source row sy interpolated at every
// output column, filling one on a miss. keep is the slot the caller still
// reads and a miss must not overwrite (-1: none).
func (t *resizeTabs) hlerp(f *Frame, sy, keep int) int {
	if t.hsrc[0] == sy {
		return 0
	}
	if t.hsrc[1] == sy {
		return 1
	}
	slot := 1 - max(keep, 0)
	hlerpRow(f.Pix[sy*f.W:sy*f.W+f.W], t.src, t.x0, t.x1, t.omfx, t.fx, t.hrow[slot])
	t.hsrc[slot] = sy
	return slot
}

// useAVX2 selects ResizeBilinearRows' AVX2 row kernels; the amd64 init
// sets it once from cpu.AVX2 (resize_amd64.go). The AVX2 kernels perform
// the Go loops' float64 operations per pixel in the same order, with no
// FMA, so the choice cannot change a byte. It is a flag, like useSSE2,
// not a function value: hlerpRow and vlerpRow are direct calls.
var useAVX2 bool

// hlerpRow is ResizeBilinearRows' horizontal row kernel: hlerpAVX2 when
// useAVX2, else hlerpGo.
func hlerpRow(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64) {
	if useAVX2 {
		hlerpAVX2(row, src, x0, x1, omfx, fx, dst)
		return
	}
	hlerpGo(row, src, x0, x1, omfx, fx, dst)
}

// vlerpRow is ResizeBilinearRows' vertical row kernel: vlerpAVX2 when
// useAVX2, else vlerpGo.
func vlerpRow(top, bot []float64, omfy, fy float64, dst []uint8) {
	if useAVX2 {
		vlerpAVX2(top, bot, omfy, fy, dst)
		return
	}
	vlerpGo(top, bot, omfy, fy, dst)
}

// hlerpGo is the horizontal lerp of one source row at every output column:
// dst[x] = float64(row[x0[x]])*omfx[x] + float64(row[x1[x]])*fx[x], where
// omfx holds 1-fx. src is the AVX2 kernel's scratch (row widened to
// float64, gathered from); the Go loop reads row directly.
func hlerpGo(row []uint8, src []float64, x0, x1 []int32, omfx, fx, dst []float64) {
	x0, x1, omfx, fx = x0[:len(dst)], x1[:len(dst)], omfx[:len(dst)], fx[:len(dst)]
	for x := range dst {
		dst[x] = float64(float64(row[x0[x]])*omfx[x]) + float64(float64(row[x1[x]])*fx[x])
	}
}

// vlerpGo is the vertical lerp and store of one output row:
// dst[x] = clamp8(top[x]*omfy + bot[x]*fy), where omfy is 1-fy.
func vlerpGo(top, bot []float64, omfy, fy float64, dst []uint8) {
	for x := range dst {
		dst[x] = clamp8(float64(top[x]*omfy) + float64(bot[x]*fy))
	}
}

// ResizeBilinear rescales f to w x h using bilinear interpolation with
// half-pixel-centred sample positions (the convention used by video scalers,
// so that down-then-up round trips are alignment-free). It is the "bilinear
// up-sampling" baseline the paper compares DNN super-resolution against.
func (f *Frame) ResizeBilinear(w, h int) *Frame {
	out := New(w, h)
	f.ResizeBilinearRows(out, 0, h)
	return out
}

// ResizeBilinearRows writes rows [r0, r1) of f rescaled to out's size into
// out, so callers can resize a frame in independent row ranges (the SR
// inference tail does, one range per pool task); any partition of [0, out.H)
// yields the bytes of one whole-frame ResizeBilinear.
//
// Column indices and blend weights are computed once per call instead of
// once per pixel, and the horizontal lerp runs once per source row instead
// of once per output row that reads it (a quarter as often at x2): the
// cached float64 row holds the very values the per-pixel expression
// a*(1-fx)+b*fx produced, so the output is unchanged bit for bit. Both
// lerps run as row kernels (hlerpRow, vlerpRow), AVX2 where the CPU has it.
func (f *Frame) ResizeBilinearRows(out *Frame, r0, r1 int) {
	w := out.W
	if f.W == 0 || f.H == 0 || w == 0 || r0 >= r1 {
		return
	}
	if w == f.W && out.H == f.H {
		copy(out.Pix[r0*w:r1*w], f.Pix[r0*w:r1*w])
		return
	}
	t := resizePool.Get().(*resizeTabs)
	t.ensure(w, f.W)
	xs, ys := float64(f.W)/float64(w), float64(f.H)/float64(out.H)
	for x := range t.fx {
		x0, x1, fx := axisPos(x, xs, f.W)
		t.x0[x], t.x1[x], t.omfx[x], t.fx[x] = int32(x0), int32(x1), 1-fx, fx
	}
	for y := r0; y < r1; y++ {
		y0, y1, fy := axisPos(y, ys, f.H)
		ti := t.hlerp(f, y0, -1)
		top := t.hrow[ti]
		bot := t.hrow[t.hlerp(f, y1, ti)]
		vlerpRow(top, bot, 1-fy, fy, out.Pix[y*w:y*w+w])
	}
	resizePool.Put(t)
}

// Downscale returns f reduced by an integer factor using box averaging,
// emulating the camera-ISP downscale an ingest client performs before
// encoding at a sub-native resolution.
//
// Each output sample is the rounded mean of a factor x factor block,
// computed as (2s+n)/(2n) for the block sum s of n = factor² bytes (the
// package doc gives the identity with the float form, which ref_test.go
// keeps as the oracle).
func (f *Frame) Downscale(factor int) *Frame {
	if factor <= 1 {
		return f.Clone()
	}
	w, h := f.W/factor, f.H/factor
	out := New(w, h)
	if factor == 2 {
		for y := 0; y < h; y++ {
			r0 := f.Pix[2*y*f.W : 2*y*f.W+2*w]
			r1 := f.Pix[(2*y+1)*f.W : (2*y+1)*f.W+2*w]
			halveRow(out.Pix[y*w:y*w+w], r0, r1)
		}
		return out
	}
	n := uint(factor * factor)
	for y := 0; y < h; y++ {
		o := out.Pix[y*w : y*w+w]
		for x := range o {
			var s uint
			for dy := 0; dy < factor; dy++ {
				i := (y*factor+dy)*f.W + x*factor
				for _, v := range f.Pix[i : i+factor] {
					s += uint(v)
				}
			}
			o[x] = uint8((2*s + n) / (2 * n))
		}
	}
	return out
}

// useSSE2 selects Downscale(2)'s SSE2 row kernel. SSE2 is baseline amd64,
// so init (resize_amd64.go) sets it there without a probe; it is a flag
// rather than a function value, as in the codec.
var useSSE2 bool

// halveRow writes the 2x2 box means of source rows r0 and r1 into o: the
// SSE2 kernel over the first len(o) &^ 15 outputs when useSSE2, the Go twin
// over the rest. r0 and r1 hold at least 2·len(o) bytes each.
func halveRow(o, r0, r1 []uint8) {
	x0 := 0
	if useSSE2 {
		x0 = len(o) &^ 15
		halveSSE2(o[:x0], r0, r1)
	}
	halveRowGo(o, r0, r1, x0)
}

// halveRowGo is halveRow in Go over o[x0:].
func halveRowGo(o, r0, r1 []uint8, x0 int) {
	r0, r1 = r0[:2*len(o)], r1[:2*len(o)]
	for x := x0; x < len(o); x++ {
		s := uint(r0[2*x]) + uint(r0[2*x+1]) + uint(r1[2*x]) + uint(r1[2*x+1])
		o[x] = uint8((s + 2) >> 2) // (2s+4)/8
	}
}

// GridCell identifies one cell of the non-overlapping patch grid laid over a
// frame (§5.2: "a 1080p frame is divided into 16x9 grid, where each cell is a
// 120x120 patch").
type GridCell struct {
	Col, Row int // grid coordinates
	X, Y     int // top-left pixel of the cell within the frame
}

// Grid returns the non-overlapping patch grid for a frame of dimensions
// w x h with the given cell size. Cells that would extend past the frame
// boundary are omitted, matching the paper's whole-cell grid.
func Grid(w, h, cell int) []GridCell {
	if cell <= 0 {
		return nil
	}
	cols, rows := w/cell, h/cell
	out := make([]GridCell, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, GridCell{Col: c, Row: r, X: c * cell, Y: r * cell})
		}
	}
	return out
}

// Patch extracts the patch for grid cell g (cell x cell pixels) from f.
func Patch(f *Frame, g GridCell, cell int) *Frame {
	return f.Crop(g.X, g.Y, cell, cell)
}

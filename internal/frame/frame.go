// Package frame provides the raw-video building blocks used throughout
// LiveNAS-Go: single-plane luminance frames, bilinear rescaling at arbitrary
// integer or fractional factors, cropping and pasting, and the fixed 120x120
// patch grid that the LiveNAS patch sampler (§5.2 of the paper) operates on.
//
// Frames are luma-only. Super-resolution networks in the NAS line train and
// evaluate on the luminance channel; PSNR/SSIM in our pipeline are therefore
// luma metrics, which matches the paper's methodology up to a constant.
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
// table per output column, plus the horizontally interpolated top and
// bottom source rows (hrow, labelled with the source row they hold in
// hsrc). The backing arrays are recycled through a sync.Pool so steady-state
// resizes (every frame, every patch) do not allocate; the coefficients
// themselves are recomputed per call with arithmetic identical to the
// original per-pixel computation, so outputs are bit-for-bit unchanged.
type resizeTabs struct {
	x0, x1 []int
	fx     []float64
	hrow   [2][]float64
	hsrc   [2]int
}

var resizePool = sync.Pool{New: func() any { return new(resizeTabs) }}

func (t *resizeTabs) ensure(w int) {
	if cap(t.x0) < w {
		t.x0 = make([]int, w)
		t.x1 = make([]int, w)
		t.fx = make([]float64, w)
		t.hrow = [2][]float64{make([]float64, w), make([]float64, w)}
	}
	t.x0, t.x1, t.fx = t.x0[:w], t.x1[:w], t.fx[:w]
	t.hrow[0], t.hrow[1] = t.hrow[0][:w], t.hrow[1][:w]
	t.hsrc = [2]int{-1, -1}
}

// axisPos is the half-pixel-centred source index pair and blend fraction of
// output position i on an axis of srcN source samples, scale = srcN/n.
func axisPos(i int, scale float64, srcN int) (p0, p1 int, fr float64) {
	src := (float64(i)+0.5)*scale - 0.5
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
	row := f.Pix[sy*f.W : sy*f.W+f.W]
	for x, fx := range t.fx {
		t.hrow[slot][x] = float64(row[t.x0[x]])*(1-fx) + float64(row[t.x1[x]])*fx
	}
	t.hsrc[slot] = sy
	return slot
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
// Column indices and blend fractions are computed once per call instead of
// once per pixel, and the horizontal lerp runs once per source row instead
// of once per output row that reads it (a quarter as often at x2): the
// cached float64 row holds the very values the per-pixel expression
// a*(1-fx)+b*fx produced, so the output is unchanged bit for bit.
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
	t.ensure(w)
	xs, ys := float64(f.W)/float64(w), float64(f.H)/float64(out.H)
	for x := range t.fx {
		t.x0[x], t.x1[x], t.fx[x] = axisPos(x, xs, f.W)
	}
	for y := r0; y < r1; y++ {
		y0, y1, fy := axisPos(y, ys, f.H)
		ti := t.hlerp(f, y0, -1)
		top := t.hrow[ti]
		bot := t.hrow[t.hlerp(f, y1, ti)]
		orow := out.Pix[y*w : y*w+w]
		for x := range orow {
			orow[x] = clamp8(top[x]*(1-fy) + bot[x]*fy)
		}
	}
	resizePool.Put(t)
}

// Downscale returns f reduced by an integer factor using box averaging,
// emulating the camera-ISP downscale an ingest client performs before
// encoding at a sub-native resolution.
func (f *Frame) Downscale(factor int) *Frame {
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

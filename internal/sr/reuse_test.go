package sr

import (
	"bytes"
	"testing"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/vidgen"
)

// TestReuseEligibility measures how much of a served frame a cross-frame
// reuse cache could skip: for every content category it encodes and
// decodes a short ingest clip and logs the share of anytime cells
// (anytimeCellLR, plus their haloLR receptive-field halo) that are
// byte-equal to the same region of the previous *decoded* frame — the only
// cells whose enhanced output could be copied forward unchanged — and,
// beside it, the share of single pixels that are unchanged. It asserts
// nothing about the shares; they are the go/no-go figure for such a cache.
// The clip is the serve_hd geometry: 768x432 native, 384x216 ingest,
// 30 fps at 1200 kbps with a 2-second GoP.
func TestReuseEligibility(t *testing.T) {
	if testing.Short() {
		t.Skip("renders and encodes nine clips")
	}
	const (
		w, h    = 384, 216
		fps     = 30
		frames  = 45
		kbps    = 1200
		gopSize = 2 * fps
	)
	for _, cat := range vidgen.Categories() {
		src := vidgen.NewSource(cat, 2*w, 2*h, 77, float64(frames)/fps+1)
		enc := codec.NewEncoder(codec.Config{Profile: codec.BX8, W: w, H: h, KeyInterval: gopSize})
		dec := codec.NewDecoder(codec.Config{Profile: codec.BX8, W: w, H: h})
		var prev *frame.Frame
		same, total, pixSame, pixTotal := 0, 0, 0, 0
		for i := 0; i < frames; i++ {
			lr := src.FrameAt(float64(i) / fps).Downscale(2)
			got, err := dec.Decode(enc.Encode(lr, kbps*1000/fps))
			if err != nil {
				t.Fatalf("%v frame %d: %v", cat, i, err)
			}
			if prev != nil {
				for j, v := range got.Pix {
					if v == prev.Pix[j] {
						pixSame++
					}
				}
				pixTotal += len(got.Pix)
				for _, c := range anytimeCells(got) {
					total++
					if haloRegionEqual(got, prev, c) {
						same++
					}
				}
			}
			prev = got.Clone()
		}
		share := float64(same) / float64(total)
		if share < 0 || share > 1 || total == 0 {
			t.Fatalf("%v: share %v over %d cells", cat, share, total)
		}
		t.Logf("%-4v %5.1f %% of %d cells reusable (%4.1f %% of pixels unchanged)",
			cat, 100*share, total, 100*float64(pixSame)/float64(pixTotal))
	}
}

// haloRegionEqual reports whether cell c plus its haloLR halo (clipped to
// the frame) holds the same bytes in a and b.
func haloRegionEqual(a, b *frame.Frame, c qcell) bool {
	left, top := max(0, c.x0-haloLR), max(0, c.y0-haloLR)
	right, bot := min(a.W, c.x1+haloLR), min(a.H, c.y1+haloLR)
	for y := top; y < bot; y++ {
		if !bytes.Equal(a.Pix[y*a.W+left:y*a.W+right], b.Pix[y*b.W+left:y*b.W+right]) {
			return false
		}
	}
	return true
}

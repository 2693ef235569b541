package codec

import "livenas/internal/frame"

// In-loop deblocking filter (optional, Config.Deblock). Block-transform
// codecs produce visible discontinuities at 8x8 block boundaries at low
// bitrates; an in-loop filter smooths boundary steps that are small enough
// to be quantisation artifacts (large steps are kept — they are real
// edges). Both the encoder's reconstruction and the decoder run the
// identical filter, so motion compensation stays drift-free.

// deblockFrame smooths block boundaries of a reconstructed frame in place.
func deblockFrame(f *frame.Frame, qp int) {
	thr := deblockTab[qp]
	w, h := f.W, f.H
	// Vertical boundaries (columns at multiples of blockSize).
	for x := blockSize; x < w; x += blockSize {
		for y := 0; y < h; y++ {
			row := f.Pix[y*w:]
			a, b := int(row[x-1]), int(row[x])
			d := a - b
			if d < 0 {
				d = -d
			}
			if d == 0 || d > thr {
				continue
			}
			row[x-1] = uint8((3*a + b + 2) / 4)
			row[x] = uint8((a + 3*b + 2) / 4)
		}
	}
	// Horizontal boundaries (rows at multiples of blockSize).
	for y := blockSize; y < h; y += blockSize {
		up := f.Pix[(y-1)*w:]
		dn := f.Pix[y*w:]
		for x := 0; x < w; x++ {
			a, b := int(up[x]), int(dn[x])
			d := a - b
			if d < 0 {
				d = -d
			}
			if d == 0 || d > thr {
				continue
			}
			up[x] = uint8((3*a + b + 2) / 4)
			dn[x] = uint8((a + 3*b + 2) / 4)
		}
	}
}

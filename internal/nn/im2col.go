package nn

// The conv engine is an implicit GEMM: no tap-expanded panel is built for
// the forward pass or the input gradient. Each row block [y0, y1) of a
// (c, h, w) channel-major tensor is copied once, with a pad = k/2 halo, into
// a zero-bordered block of c planes, each bh × bw with bw = w+2·pad:
//
//	blk[(ic*bh + yy)*bw + xx] = src[ic][y0+yy-pad][xx-pad]   (+0 outside)
//
// and an offset table gives each tap's position relative to an output
// pixel: tap kidx = (ic*k+ky)*k+kx of output pixel (y, x) of the block is
// blk[off[kidx] + y*bw + x] with off[kidx] = (ic*bh + ky)*bw + kx. Reading
// B[kidx][(y, x)] through the table yields exactly the im2col panel the
// engine used to build — the same values, +0 where a tap hangs over the
// frame edge — in the same ascending (ic, ky, kx) order, which is what keeps
// every output element's float32 operations, and hence its bits, those of
// the scalar reference (convRef in ref_test.go).

// borderBlock copies rows [y0-pad, y0+rows+pad) of the (c, h, w) tensor src
// into dst as c planes of bh × (w+2·pad) elements, +0 outside the image.
// Each plane's first rows+2·pad rows are written; bh may exceed that (the
// last, shorter block of a call keeps the call's plane height, so one offset
// table serves every block). It is generic over the element type so the
// int8 path (int8-in-int16 containers, see quant.go) borders its blocks
// with the same row copies.
func borderBlock[T float32 | int16](src []T, c, h, w, pad, y0, rows, bh int, dst []T) {
	bw := w + 2*pad
	for ic := 0; ic < c; ic++ {
		ch := src[ic*h*w : (ic+1)*h*w]
		plane := dst[ic*bh*bw : (ic*bh+rows+2*pad)*bw]
		for yy := 0; yy < rows+2*pad; yy++ {
			drow := plane[yy*bw : (yy+1)*bw]
			sy := y0 + yy - pad
			if sy < 0 || sy >= h {
				clear(drow)
				continue
			}
			clear(drow[:pad])
			copy(drow[pad:pad+w], ch[sy*w:(sy+1)*w])
			clear(drow[pad+w:])
		}
	}
}

// tapOffsets fills off (c·k·k entries) with the position of every tap of a
// k×k conv over c bordered planes of bh × bw: off[(ic*k+ky)*k+kx] =
// (ic*bh + ky)*bw + kx. With flip set the tap is mirrored, (ky, kx) →
// (k-1-ky, k-1-kx): reading the bordered output gradient that way turns the
// input gradient into the forward's GEMM with a transposed weight matrix.
func tapOffsets(off []int32, c, k, bh, bw int, flip bool) {
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				ty, tx := ky, kx
				if flip {
					ty, tx = k-1-ky, k-1-kx
				}
				off[(ic*k+ky)*k+kx] = int32((ic*bh+ty)*bw + tx)
			}
		}
	}
}

// im2col expands a bordered block into the explicit kk × (rows·w) column
// matrix, row kidx being the block read through off[kidx], one w-long run
// per output row. Only the weight gradient uses it: kernDot4's lane split
// is defined over a contiguous n-long row.
func im2col(blk []float32, off []int32, rows, w, bw int, dst []float32) {
	n := rows * w
	for p, o := range off {
		row := dst[p*n : (p+1)*n]
		for y := 0; y < rows; y++ {
			copy(row[y*w:(y+1)*w], blk[int(o)+y*bw:])
		}
	}
}

// kkEven is the tap count of a (inC, k) conv rounded up to even — the
// length of the int8 path's offset tables and the row width of its
// quantized weight matrices, so the pair-wise multiply-add kernels never
// straddle a tap pair.
func kkEven(inC, k int) int {
	kk := inC * k * k
	return kk + kk&1
}

// convBlockRows picks the row-block height for an image of width w: about
// targetCols output columns per block. At the serve_hd frame (w = 384) that
// is 5 rows, so a bordered block of the 8-channel 3×3 layers holds
// 8 × 7 × 386 floats (86 KB, L2-resident), and the one tap run a
// micro-kernel step reads is 8 or 16 floats of one block row. The value
// depends only on the shape, never on the machine or pool size, so block
// boundaries — and therefore gradient fold order — are reproducible
// everywhere.
func convBlockRows(w, h int) int {
	const targetCols = 2048
	rows := targetCols / w
	if rows < 1 {
		rows = 1
	}
	if rows > h {
		rows = h
	}
	return rows
}

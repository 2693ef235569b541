package nn

// im2col packs rows [y0, y1) of a (inC, h, w) channel-major tensor for a
// k×k stride-1 "same"-padded convolution into dst, as a matrix with
// inC*k*k rows and (y1-y0)*w columns:
//
//	dst[((ic*k+ky)*k+kx)*n + (y-y0)*w + x] = src[ic][y+ky-pad][x+kx-pad]
//
// (zero outside the image), where n = (y1-y0)*w. Ascending row index is
// exactly the (ic, ky, kx) tap order of the scalar reference kernel, which
// is what keeps the GEMM path's per-element accumulation order — and hence
// its float32 rounding — bit-identical to convRef.
//
// With flip set the tap offsets are negated (dy = pad-ky, dx = pad-kx):
// packing the output gradient this way turns the input-gradient computation
// into the same GEMM shape with a transposed, tap-flipped weight matrix.
//
// Each matrix row is one shifted copy of an image row strip, so the packing
// runs at copy speed rather than per-element gather speed.
func im2col(src []float32, inC, h, w, k, y0, y1 int, flip bool, dst []float32) {
	pad := k / 2
	n := (y1 - y0) * w
	for ic := 0; ic < inC; ic++ {
		ch := src[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			dy := ky - pad
			if flip {
				dy = -dy
			}
			for kx := 0; kx < k; kx++ {
				dx := kx - pad
				if flip {
					dx = -dx
				}
				row := dst[((ic*k+ky)*k+kx)*n : ((ic*k+ky)*k+kx)*n+n]
				packShifted(ch, h, w, y0, y1, dy, dx, row)
			}
		}
	}
}

// packShifted writes src shifted by (dy, dx) over rows [y0, y1) into dst,
// zero-filling samples that fall outside the image. It is generic over the
// element type so the int8 path (int8-in-int16 containers, see quant.go)
// packs its panels with the same copy-speed row shifts as the f32 engine.
func packShifted[T float32 | int16](src []T, h, w, y0, y1, dy, dx int, dst []T) {
	for y := y0; y < y1; y++ {
		drow := dst[(y-y0)*w : (y-y0)*w+w]
		sy := y + dy
		if sy < 0 || sy >= h {
			for i := range drow {
				drow[i] = 0
			}
			continue
		}
		srow := src[sy*w : sy*w+w]
		switch {
		case dx == 0:
			copy(drow, srow)
		case dx > 0:
			// Sample (x+dx) for x in [0, w-dx); right edge is padding.
			if dx >= w {
				for i := range drow {
					drow[i] = 0
				}
				continue
			}
			copy(drow[:w-dx], srow[dx:])
			for i := w - dx; i < w; i++ {
				drow[i] = 0
			}
		default: // dx < 0: left edge is padding.
			if -dx >= w {
				for i := range drow {
					drow[i] = 0
				}
				continue
			}
			for i := 0; i < -dx; i++ {
				drow[i] = 0
			}
			copy(drow[-dx:], srow[:w+dx])
		}
	}
}

// im2colI16 is the int8-path variant of im2col: it packs rows [y0, y1) of a
// (inC, h, w) channel-major int8-in-int16 activation tensor into dst with
// the same row layout and the same ascending (ic, ky, kx) tap order, then
// zero-fills one extra pad row when inC*k*k is odd so the PMADDWD-style
// micro-kernels can always consume taps in pairs. dst must hold
// kkEven(inC,k) * (y1-y0)*w elements. No flip variant: the int8 path is
// inference-only.
func im2colI16(src []int16, inC, h, w, k, y0, y1 int, dst []int16) {
	pad := k / 2
	n := (y1 - y0) * w
	for ic := 0; ic < inC; ic++ {
		ch := src[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			dy := ky - pad
			for kx := 0; kx < k; kx++ {
				dx := kx - pad
				row := dst[((ic*k+ky)*k+kx)*n : ((ic*k+ky)*k+kx)*n+n]
				packShifted(ch, h, w, y0, y1, dy, dx, row)
			}
		}
	}
	if kk := inC * k * k; kk&1 == 1 {
		pad := dst[kk*n : (kk+1)*n]
		for i := range pad {
			pad[i] = 0
		}
	}
}

// kkEven is the tap count of a (inC, k) conv rounded up to even — the row
// count of the int8 im2col panels and quantized weight matrices, so the
// pair-wise multiply-add kernels never straddle a row boundary.
func kkEven(inC, k int) int {
	kk := inC * k * k
	return kk + kk&1
}

// convBlockRows picks the row-block height for an image of width w: about
// targetCols columns per packed im2col panel (kk rows × blockRows*w
// columns). A panel row is then ~8 KB and a kk=72 panel (the 8-channel 3×3
// layers) ~576 KB, which lives in L2/L3, not L1; what L1 holds is the
// column strip one micro-kernel call walks (kk rows × 8 or 16 columns,
// 2.3–4.6 KB at kk=72). The value depends only on the shape, never on the
// machine or pool size, so block boundaries — and therefore gradient fold
// order — are reproducible everywhere.
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

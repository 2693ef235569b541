package nn

import "unsafe"

// This file is the register-blocked GEMM heart of the kernel engine. A
// same-padded Conv2D forward is one implicit GEMM per row block:
//
//	out[oc][y][x] = bias[oc] + Σ_kidx W[oc][kidx] · blk[off[kidx] + y*bw + x]
//
// over the block's zero-bordered copy blk and its tap offset table off
// (im2col.go), with kidx ascending over the (ic, ky, kx) tap order. Every
// micro-kernel computes a tile of out inside one output row, with the k-sum
// of each element accumulated sequentially in ascending kidx — element-wise
// float32 mul then add, no FMA — so each output element performs the same
// float32 operations in the same order as the scalar tap loop and the result
// is bit-identical to it (convRefForward, the oracle in ref_test.go;
// differential tests pin this down). Vector lanes are independent IEEE
// operations, so the tile shape and the vector width change no element's
// rounding. Every tile reads B the same way: row p of its B is the
// tile-width run starting at b[off[p]].
//
// The tiles, widest first:
//
//	8×8   kern8x8     AVX2, every full 8-row group (the 8-channel layers)
//	4×16  kern4x16    AVX2, the remaining 4-row groups (the s² tail)
//	4×8   kern4x8     SSE2, 4-row groups without AVX2; the 8 columns after
//	                  the last 16-column tile
//	1×8   kern1x8     SSE2, single rows
//	8×4   kern8x4     SSE2, the 4 columns after the last 8-column tile of
//	4×4   kern4x4     an 8-row group, a 4-row group or a single row when
//	1×4   kern1x4     w%8 >= 4 (the trainer's 12-wide LR patches)
//	edge  gemmScalar  the last w%4 columns of every output row
//
// With relu set every tile stores max(v, +0) with the accumulator as the
// first source — ReLU.Forward's `v > 0` predicate, so NaN and −0 store +0 —
// and gemmScalar applies that predicate too.
//
// SSE2 is the amd64 baseline and AVX2 is not, so the amd64 init installs
// the two AVX2 tiles only when cpu.AVX2 says the CPU and OS support them;
// the SSE2 tiles are called directly. Other architectures and purego builds
// run the pure-Go twins of all seven tiles from gemm_generic.go.
//
// gemmConvBias also computes the input gradient (as a conv of the bordered
// output gradient through the tap-flipped table, with transposed weights),
// and kernDot4 computes the weight gradient (dOut · im2colᵀ row blocks).

// kernTile8x8 and kernTile4x16, when non-nil, compute an 8-row × 8-column
// tile from a [kk][8] packed A and a 4-row × 16-column tile from a [kk][4]
// packed A, with kern4x8's contract otherwise. Set once at init: on amd64
// when the CPU has AVX2, always on other builds (the Go twins). Nil on an
// SSE2-only amd64 CPU, routing every row group through kern4x8 and kern1x8.
var kernTile8x8, kernTile4x16 func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)

// gemmConvBias computes, for oc < outC, y < rows and x < w,
//
//	c[oc*cs + y*w + x] = bias[oc] + Σ_p a[oc*kk+p] * b[off[p] + y*bs + x]
//
// with kk = len(off), rectified with ReLU.Forward's predicate when relu is
// set. b rows are bs apart (the bordered block's width), C channels cs
// apart. apack is caller scratch of at least 8*kk elements (packed A tiles
// for the micro-kernels).
func gemmConvBias(a, bias, b []float32, off []int32, outC, rows, w, bs int, c []float32, cs int, apack []float32, relu bool) {
	kk := len(off)
	w8, w4 := w&^7, w&^3
	oc := 0
	if kernTile8x8 != nil {
		for ; oc+8 <= outC; oc += 8 {
			packA(a, oc, 8, kk, apack)
			for y := 0; y < rows; y++ {
				brow, crow := b[y*bs:], c[oc*cs+y*w:]
				for x := 0; x < w8; x += 8 {
					kernTile8x8(kk, &apack[0], &brow[x], &off[0], &bias[oc], &crow[x], cs, relu)
				}
				if w4 > w8 {
					kern8x4(kk, &apack[0], &brow[w8], &off[0], &bias[oc], &crow[w8], cs, relu)
				}
				gemmScalar(a, bias, brow, off, oc, oc+8, w4, w, c[y*w:], cs, relu)
			}
		}
	}
	for ; oc+4 <= outC; oc += 4 {
		packA(a, oc, 4, kk, apack)
		for y := 0; y < rows; y++ {
			brow, crow := b[y*bs:], c[oc*cs+y*w:]
			x := 0
			if kernTile4x16 != nil {
				for ; x+16 <= w; x += 16 {
					kernTile4x16(kk, &apack[0], &brow[x], &off[0], &bias[oc], &crow[x], cs, relu)
				}
			}
			for ; x < w8; x += 8 {
				kern4x8(kk, &apack[0], &brow[x], &off[0], &bias[oc], &crow[x], cs, relu)
			}
			if w4 > w8 {
				kern4x4(kk, &apack[0], &brow[w8], &off[0], &bias[oc], &crow[w8], cs, relu)
			}
			gemmScalar(a, bias, brow, off, oc, oc+4, w4, w, c[y*w:], cs, relu)
		}
	}
	for ; oc < outC; oc++ {
		for y := 0; y < rows; y++ {
			brow, crow := b[y*bs:], c[oc*cs+y*w:]
			for x := 0; x < w8; x += 8 {
				kern1x8(kk, &a[oc*kk], &brow[x], &off[0], &bias[oc], &crow[x], relu)
			}
			if w4 > w8 {
				kern1x4(kk, &a[oc*kk], &brow[w8], &off[0], &bias[oc], &crow[w8], relu)
			}
			gemmScalar(a, bias, brow, off, oc, oc+1, w4, w, c[y*w:], cs, relu)
		}
	}
}

// packA packs rows [oc, oc+mr) of the kk-wide A matrix into dst as
// [kk][mr], the layout the mr-row micro-kernels broadcast from.
func packA(a []float32, oc, mr, kk int, dst []float32) {
	d := dst[: mr*kk : mr*kk]
	for r := 0; r < mr; r++ {
		for p, v := range a[(oc+r)*kk : (oc+r+1)*kk] {
			d[p*mr+r] = v
		}
	}
}

// gemmScalar is the edge path for rows [oc0, oc1) and columns [x0, x1) of
// one output row: c[oc*cs+x] = bias[oc] + Σ_p a[oc*kk+p] * b[off[p]+x],
// plain scalar accumulation in the same ascending-kidx order as the
// micro-kernels and the same ReLU predicate, so edges are bit-identical too.
func gemmScalar(a, bias, b []float32, off []int32, oc0, oc1, x0, x1 int, c []float32, cs int, relu bool) {
	kk := len(off)
	for oc := oc0; oc < oc1; oc++ {
		arow := a[oc*kk : (oc+1)*kk]
		crow := c[oc*cs:]
		for x := x0; x < x1; x++ {
			s := bias[oc]
			for p, o := range off {
				s += float32(arow[p] * b[int(o)+x])
			}
			if relu && !(s > 0) {
				s = 0
			}
			crow[x] = s
		}
	}
}

// kernGo computes one mr-row × cols-column C tile from a [kk][mr] packed A:
// c[r*cn+j] = bias[r] + Σ_{p<kk} a[p*mr+r] * b[off[p]+j], summed in
// ascending p, stored as +0 when relu is set and the sum is not > 0. It is
// the body of every tile's pure-Go twin (gemm_generic.go), and tests reach
// it on amd64 as well (export_test.go).
func kernGo(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn, mr, cols int, relu bool) {
	as := unsafe.Slice(a, kk*mr)
	os := unsafe.Slice(off, kk)
	span := 0
	for _, o := range os {
		span = max(span, int(o))
	}
	bs := unsafe.Slice(b, span+cols)
	bi := unsafe.Slice(bias, mr)
	cs := unsafe.Slice(c, (mr-1)*cn+cols)
	for r := 0; r < mr; r++ {
		for j := 0; j < cols; j++ {
			s := bi[r]
			for p, o := range os {
				s += float32(as[p*mr+r] * bs[int(o)+j])
			}
			if relu && !(s > 0) {
				s = 0
			}
			cs[r*cn+j] = s
		}
	}
}

// gemmDotRows computes out[r] = Σ_p g[p]*b[(r0+r)*bn+p] for r < rows
// (rows <= 4), the weight-gradient inner product of one output-channel
// gradient row against a block of im2col rows. The vectorized kernel
// splits the sum into four interleaved lane partials reduced in a fixed
// order; the scalar tail is added after, in index order. The grouping
// differs from a plain sequential sum (gradients are bounded by the error
// of their absolute-value sums, not held to bit-equality), but it is fixed
// by shape alone, so results are deterministic for any pool size and
// architecture.
func gemmDotRows(g, b []float32, bn, r0, rows int, out []float32) {
	n := len(g)
	n4 := n &^ 3
	r := 0
	for ; r+4 <= rows; r += 4 {
		if n4 > 0 {
			kernDot4(n4, &g[0], &b[(r0+r)*bn], bn, &out[r])
		} else {
			out[r], out[r+1], out[r+2], out[r+3] = 0, 0, 0, 0
		}
		for p := n4; p < n; p++ {
			gv := g[p]
			out[r] += float32(gv * b[(r0+r)*bn+p])
			out[r+1] += float32(gv * b[(r0+r+1)*bn+p])
			out[r+2] += float32(gv * b[(r0+r+2)*bn+p])
			out[r+3] += float32(gv * b[(r0+r+3)*bn+p])
		}
	}
	for ; r < rows; r++ {
		row := b[(r0+r)*bn : (r0+r)*bn+n]
		// Mirror the 4-lane split of the vector kernel so edge rows sum in
		// the same order as full groups.
		var l0, l1, l2, l3 float32
		for p := 0; p+4 <= n4; p += 4 {
			l0 += float32(g[p] * row[p])
			l1 += float32(g[p+1] * row[p+1])
			l2 += float32(g[p+2] * row[p+2])
			l3 += float32(g[p+3] * row[p+3])
		}
		s := (l0 + l2) + (l1 + l3)
		for p := n4; p < n; p++ {
			s += float32(g[p] * row[p])
		}
		out[r] = s
	}
}

package nn

// This file is the register-blocked GEMM heart of the kernel engine. A
// same-padded Conv2D forward is im2col + one GEMM per row block:
//
//	out[oc][p] = bias[oc] + Σ_kidx W[oc][kidx] · pack[kidx][p]
//
// with kidx ascending over the (ic, ky, kx) tap order. The micro-kernel
// computes a 4×8 tile of out with the k-sum of every element accumulated
// sequentially in ascending kidx — element-wise float32 mul/add only, no
// FMA — so each output element performs the same float32 operations in the
// same order as the scalar tap loop and the result is bit-identical to it
// (convRefForward, the oracle in ref_test.go; differential tests pin this
// down). On amd64 the micro-kernel is SSE2 assembly (MULPS/ADDPS are
// lane-wise IEEE ops, so vectorizing across output elements does not change
// any element's rounding); other architectures use the pure-Go fallback in
// gemm_generic.go.
//
// The same micro-kernel computes the input gradient (as a conv of the
// output gradient with the tap-flipped, transposed weights), and kernDot4
// computes the weight gradient (dOut · packᵀ row blocks).

// gemmConvBias computes c[oc][j] = bias[oc] + Σ_p a[oc*kk+p]*b[p*n+j] for
// oc < outC, j < n, with c rows cstride apart. apack is caller scratch of
// at least 4*kk elements (packed A tiles for the micro-kernel).
func gemmConvBias(a, bias, b []float32, outC, kk, n int, c []float32, cstride int, apack []float32) {
	m4 := outC &^ 3
	n8 := n &^ 7
	for oc := 0; oc < m4; oc += 4 {
		packA4(a, oc, kk, apack)
		if n8 > 0 {
			for j := 0; j < n8; j += 8 {
				kern4x8(kk, &apack[0], &b[j], n, &bias[oc], &c[oc*cstride+j], cstride)
			}
		}
		if n8 < n {
			gemmScalar(a, bias, b, oc, oc+4, kk, n8, n, c, cstride)
		}
	}
	for oc := m4; oc < outC; oc++ {
		if n8 > 0 {
			for j := 0; j < n8; j += 8 {
				kern1x8(kk, &a[oc*kk], &b[j], n, &bias[oc], &c[oc*cstride+j])
			}
		}
		if n8 < n {
			gemmScalar(a, bias, b, oc, oc+1, kk, n8, n, c, cstride)
		}
	}
}

// packA4 packs rows [oc, oc+4) of the kk-wide A matrix into dst as
// [kk][4], the layout kern4x8 broadcasts from.
func packA4(a []float32, oc, kk int, dst []float32) {
	a0 := a[oc*kk : (oc+1)*kk]
	a1 := a[(oc+1)*kk : (oc+2)*kk]
	a2 := a[(oc+2)*kk : (oc+3)*kk]
	a3 := a[(oc+3)*kk : (oc+4)*kk]
	d := dst[: 4*kk : 4*kk]
	for p := 0; p < kk; p++ {
		d[p*4] = a0[p]
		d[p*4+1] = a1[p]
		d[p*4+2] = a2[p]
		d[p*4+3] = a3[p]
	}
}

// gemmScalar is the edge path for rows [oc0, oc1) and columns [j0, n) of
// an n-column B: plain scalar accumulation in the same ascending-kidx
// order as the micro-kernel, so edges are bit-identical too.
func gemmScalar(a, bias, b []float32, oc0, oc1, kk, j0, n int, c []float32, cstride int) {
	for oc := oc0; oc < oc1; oc++ {
		arow := a[oc*kk : (oc+1)*kk]
		crow := c[oc*cstride:]
		bi := bias[oc]
		for j := j0; j < n; j++ {
			s := bi
			bp := j
			for p := 0; p < kk; p++ {
				s += arow[p] * b[bp]
				bp += n
			}
			crow[j] = s
		}
	}
}

// gemmDotRows computes out[r] = Σ_p g[p]*b[(r0+r)*bn+p] for r < rows
// (rows <= 4), the weight-gradient inner product of one output-channel
// gradient row against a block of im2col rows. The vectorized kernel
// splits the sum into four interleaved lane partials reduced in a fixed
// order; the scalar tail is added after, in index order. The grouping
// differs from a plain sequential sum (gradients carry a 1e-5-class
// tolerance, not bit-equality), but it is fixed by shape alone, so results
// are deterministic for any pool size and architecture.
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
			out[r] += gv * b[(r0+r)*bn+p]
			out[r+1] += gv * b[(r0+r+1)*bn+p]
			out[r+2] += gv * b[(r0+r+2)*bn+p]
			out[r+3] += gv * b[(r0+r+3)*bn+p]
		}
	}
	for ; r < rows; r++ {
		row := b[(r0+r)*bn : (r0+r)*bn+n]
		// Mirror the 4-lane split of the vector kernel so edge rows sum in
		// the same order as full groups.
		var l0, l1, l2, l3 float32
		for p := 0; p+4 <= n4; p += 4 {
			l0 += g[p] * row[p]
			l1 += g[p+1] * row[p+1]
			l2 += g[p+2] * row[p+2]
			l3 += g[p+3] * row[p+3]
		}
		s := (l0 + l2) + (l1 + l3)
		for p := n4; p < n; p++ {
			s += g[p] * row[p]
		}
		out[r] = s
	}
}

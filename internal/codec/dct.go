package codec

import "math"

// blockSize is the transform block size (8x8, as in JPEG/VP8's core).
const blockSize = 8

// dctBasis holds the 8-point DCT-II basis, basis[k][n] = c(k)*cos((2n+1)kπ/16);
// dctBasisT is its transpose.
var dctBasis, dctBasisT [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			dctBasis[k][n] = c * math.Cos(float64(2*n+1)*float64(k)*math.Pi/(2*blockSize))
			dctBasisT[n][k] = dctBasis[k][n]
		}
	}
}

// dct1d is one 8-point pass of the separable transforms:
// out[j*os] = Σ_i tab[i][j]*in[i*is], each sum taken in ascending i from +0
// exactly as the textbook double loop takes it (ref_test.go keeps that
// loop), with the eight sums held in registers. Inputs that are exactly zero
// are skipped: their products are ±0, and adding ±0 never changes a sum
// that started at +0 (such a sum is never -0), so the result is bit-identical
// and sparse blocks — most of what a decoder sees — cost almost nothing.
func dct1d(tab *[blockSize][blockSize]float64, in []float64, is int, out []float64, os int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	_ = in[7*is]
	for i := 0; i < blockSize; i++ {
		t := in[i*is]
		if t == 0 {
			continue
		}
		b := &tab[i]
		a0 += b[0] * t
		a1 += b[1] * t
		a2 += b[2] * t
		a3 += b[3] * t
		a4 += b[4] * t
		a5 += b[5] * t
		a6 += b[6] * t
		a7 += b[7] * t
	}
	_ = out[7*os]
	out[0], out[os], out[2*os], out[3*os] = a0, a1, a2, a3
	out[4*os], out[5*os], out[6*os], out[7*os] = a4, a5, a6, a7
}

// fdct8 applies a separable forward 8x8 DCT-II: src (spatial, row-major,
// 64 samples) to dst (frequency).
func fdct8(src, dst *[64]float64) {
	var tmp [64]float64
	for y := 0; y < blockSize; y++ { // rows
		dct1d(&dctBasisT, src[y*blockSize:], 1, tmp[y*blockSize:], 1)
	}
	for x := 0; x < blockSize; x++ { // columns
		dct1d(&dctBasisT, tmp[x:], blockSize, dst[x:], blockSize)
	}
}

// idct8 applies the inverse 8x8 DCT (DCT-III) from frequency to spatial.
func idct8(src, dst *[64]float64) {
	var tmp [64]float64
	for x := 0; x < blockSize; x++ { // columns
		dct1d(&dctBasis, src[x:], blockSize, tmp[x:], blockSize)
	}
	for y := 0; y < blockSize; y++ { // rows
		dct1d(&dctBasis, tmp[y*blockSize:], 1, dst[y*blockSize:], 1)
	}
}

// zigzag maps scan order to raster position within an 8x8 block.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// baseQuant is the JPEG luminance quantisation matrix: the perceptual
// frequency weighting both profiles build on.
var baseQuant = [64]float64{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// MinQP and MaxQP bound the quantisation parameter (H.264-style scale).
const (
	MinQP = 0
	MaxQP = 51
)

// wireQPs is the number of QP values the 6-bit bitstream field can carry. A
// decoder must accept all of them, so the tables below cover 0..63 even
// though an encoder never exceeds MaxQP.
const wireQPs = 64

// quantTab[profile][qp] holds the 64 quantisation steps (raster order) of a
// profile at a QP; deblockTab[qp] the deblocking threshold. Both are filled
// once from the defining expressions, so a lookup returns the float the
// expression would.
var (
	quantTab   [2][wireQPs][64]float64
	deblockTab [wireQPs]int
)

func init() {
	for qp := 0; qp < wireQPs; qp++ {
		// QP to quantiser step multiplier: +6 QP doubles the step.
		scale := 0.15 * math.Pow(2, float64(qp)/6.0)
		for i, q := range baseQuant {
			quantTab[BX8][qp][i] = q * scale
			// BX9 flattens the high-frequency penalty (keeping more detail
			// per bit), part of its rate-distortion edge.
			quantTab[BX9][qp][i] = (6 + (q-6)*0.8) * scale
		}
		// The maximum boundary step treated as an artifact: larger
		// quantisation steps allow larger artifacts.
		deblockTab[qp] = min(48, int(2+scale*1.5))
	}
}

// quantSteps returns the quantisation steps of a profile at a wire QP.
func quantSteps(p Profile, qp int) *[64]float64 {
	if p == BX9 {
		return &quantTab[BX9][qp]
	}
	return &quantTab[BX8][qp]
}

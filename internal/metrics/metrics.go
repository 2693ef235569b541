// Package metrics implements the video-quality metrics used throughout the
// paper's evaluation: PSNR (the primary metric, §4 "our implementation uses
// PSNR because it is less expensive to compute"), SSIM (Appendix B), and the
// aggregation helpers (means, CDFs) the figures are built from.
package metrics

import (
	"math"
	"sort"

	"livenas/internal/frame"
)

// MSE returns the mean squared error between two equally sized frames.
// It panics if the frames differ in shape, which always indicates a pipeline
// bug rather than a runtime condition.
func MSE(a, b *frame.Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic("metrics: frame shape mismatch")
	}
	return MSEWindow(a, b, 0, 0, a.W, a.H)
}

// MSEWindow returns the mean squared error between the w×h windows of a
// and b whose top-left corner is (x, y): MSE of the two crops, without
// copying them. Both frames must hold the whole window, or it panics.
//
// The sum of squared differences is taken in integers. It equals the float
// sum a float64 loop would take, bit for bit: every partial sum of that
// loop is an integer below 255²·w·h, which for any frame up to 2⁵³/255² ≈
// 1.4·10¹¹ pixels is exact in float64, so the float loop never rounds.
func MSEWindow(a, b *frame.Frame, x, y, w, h int) float64 {
	if x < 0 || y < 0 || w < 0 || h < 0 ||
		x+w > a.W || y+h > a.H || x+w > b.W || y+h > b.H {
		panic("metrics: window outside frame")
	}
	if w == 0 || h == 0 {
		return 0
	}
	var sum uint64
	if w == a.W && w == b.W {
		// Whole rows of equally wide frames: the window is one run.
		sum = ssd(a.Pix[y*w:][:w*h], b.Pix[y*w:][:w*h])
	} else {
		for r := y; r < y+h; r++ {
			sum += ssd(a.Pix[r*a.W+x:][:w], b.Pix[r*b.W+x:][:w])
		}
	}
	return float64(sum) / float64(w*h)
}

// useSSE2 selects the SSE2 sum of squared differences. SSE2 is baseline
// amd64, so init (ssd_amd64.go) sets it there without a probe; it is a
// flag rather than a function value, as in the codec.
var useSSE2 bool

// ssd returns Σ(a[i] − b[i])² over two equally long runs: the SSE2 kernel
// over the whole 16-byte chunks when useSSE2, the Go twin over the rest.
func ssd(a, b []uint8) uint64 {
	n := 0
	var sum uint64
	if useSSE2 {
		n = len(a) &^ 15
		sum = ssdSSE2(a[:n], b[:n])
	}
	return sum + ssdGo(a[n:], b[n:len(a)])
}

func ssdGo(a, b []uint8) uint64 {
	b = b[:len(a)]
	var sum uint64
	for i, v := range a {
		d := int(v) - int(b[i])
		sum += uint64(d * d)
	}
	return sum
}

// PSNRCap is the PSNR value reported for identical frames (MSE == 0);
// real pipelines cap PSNR rather than reporting +Inf.
const PSNRCap = 100.0

// PSNR returns the peak signal-to-noise ratio between two frames in dB,
// with a 255 peak (8-bit samples).
func PSNR(a, b *frame.Frame) float64 {
	return PSNRFromMSE(MSE(a, b))
}

// PSNRFromMSE converts a mean squared error to PSNR in dB.
func PSNRFromMSE(mse float64) float64 {
	if mse <= 0 {
		return PSNRCap
	}
	p := 10 * math.Log10(255*255/mse)
	if p > PSNRCap {
		return PSNRCap
	}
	return p
}

// SSIM returns the mean structural similarity index between two frames using
// the standard 8x8 sliding window (stride 4 for speed; the constant offsets
// follow Wang et al. 2004 with K1=0.01, K2=0.03, L=255).
func SSIM(a, b *frame.Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic("metrics: frame shape mismatch")
	}
	const (
		win    = 8
		stride = 4
		c1     = (0.01 * 255) * (0.01 * 255)
		c2     = (0.03 * 255) * (0.03 * 255)
	)
	if a.W < win || a.H < win {
		// Degenerate frames: fall back to a single global window.
		return ssimWindow(a, b, 0, 0, a.W, a.H, c1, c2)
	}
	var sum float64
	var n int
	for y := 0; y+win <= a.H; y += stride {
		for x := 0; x+win <= a.W; x += stride {
			sum += ssimWindow(a, b, x, y, win, win, c1, c2)
			n++
		}
	}
	return sum / float64(n)
}

func ssimWindow(a, b *frame.Frame, x0, y0, w, h int, c1, c2 float64) float64 {
	var sa, sb, saa, sbb, sab float64
	n := float64(w * h)
	if n == 0 {
		return 1
	}
	for y := y0; y < y0+h; y++ {
		ra := a.Pix[y*a.W:]
		rb := b.Pix[y*b.W:]
		for x := x0; x < x0+w; x++ {
			va, vb := float64(ra[x]), float64(rb[x])
			sa += va
			sb += vb
			saa += float64(va * va)
			sbb += float64(vb * vb)
			sab += float64(va * vb)
		}
	}
	ma, mb := sa/n, sb/n
	va := saa/n - float64(ma*ma)
	vb := sbb/n - float64(mb*mb)
	cov := sab/n - float64(ma*mb)
	return ((float64(2*ma*mb) + c1) * (float64(2*cov) + c2)) / ((float64(ma*ma) + float64(mb*mb) + c1) * (va + vb + c2))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := float64(p / 100 * float64(len(s)-1))
	lo := int(pos)
	fracpart := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-fracpart)) + float64(s[lo+1]*fracpart)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0,1]
}

// CDF returns the empirical CDF of xs as a sorted point list, suitable for
// printing the CDF figures of the paper (Figs 8, 19b, 23b, 25).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(s))}
	}
	return out
}

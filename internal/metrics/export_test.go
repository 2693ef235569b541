package metrics

import "math"

// MSEFromPSNR inverts PSNRFromMSE.
func MSEFromPSNR(psnr float64) float64 {
	return 255 * 255 / math.Pow(10, psnr/10)
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

package metrics

import (
	"math"
	"testing"
)

// forEachSSDKernel runs fn as one subtest per sum-of-squares kernel this
// build and host can execute, with that kernel selected: "go" always, and
// "asm" when init selected the SSE2 kernel. The selection is restored
// afterwards.
func forEachSSDKernel(t *testing.T, fn func(t *testing.T)) {
	saved := useSSE2
	defer func() { useSSE2 = saved }()
	useSSE2 = false
	t.Run("go", fn)
	if !saved {
		t.Log("no SSE2 kernel on this build; testing the Go kernel only")
		return
	}
	useSSE2 = true
	t.Run("asm", fn)
}

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

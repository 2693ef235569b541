package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvKernelVariantsMatch runs gemmConvBias under each f32 tile set —
// narrow (4×8, 1×8) and, where the init installed them, wide (8×8 and 4×16
// on top: AVX2 on amd64, the Go twins elsewhere) — and pins every output
// bit against gemmScalar: the dispatch must never change results. outC up
// to 20 and n up to 90 reach every 8/4/1-row and 16/8/scalar-column
// remainder; the C rows are padded with a canary no tile may overwrite.
func TestConvKernelVariantsMatch(t *testing.T) {
	type tileSet struct {
		name        string
		k8x8, k4x16 func(kk int, a *float32, b *float32, bn int, bias *float32, c *float32, cn int)
	}
	saved8, saved16 := kernTile8x8, kernTile4x16
	defer func() { kernTile8x8, kernTile4x16 = saved8, saved16 }()
	sets := []tileSet{{name: "narrow"}}
	if saved8 != nil {
		sets = append(sets, tileSet{"wide", saved8, saved16})
	} else {
		t.Log("no wide tiles on this host; testing the narrow kernels only")
	}

	const canary = 0x7fc0dead // a NaN no kernel computes from finite inputs
	rng := rand.New(rand.NewSource(26))
	randF32 := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			kernTile8x8, kernTile4x16 = set.k8x8, set.k4x16
			for trial := 0; trial < 300; trial++ {
				outC := 1 + rng.Intn(20)
				kk := 1 + rng.Intn(90)
				if trial%4 == 0 { // the SR model's panel heights
					kk = []int{9, 36, 72}[trial/4%3]
				}
				n := 1 + rng.Intn(90)
				cstride := n + 3
				a, bias, b := randF32(outC*kk), randF32(outC), randF32(kk*n)

				want := make([]float32, outC*cstride)
				gemmScalar(a, bias, b, 0, outC, kk, 0, n, want, cstride)
				got := make([]float32, outC*cstride)
				for i := range got {
					got[i] = math.Float32frombits(canary)
				}
				gemmConvBias(a, bias, b, outC, kk, n, got, cstride, make([]float32, 8*kk))
				for oc := 0; oc < outC; oc++ {
					for j := 0; j < cstride; j++ {
						g := math.Float32bits(got[oc*cstride+j])
						w := math.Float32bits(want[oc*cstride+j])
						if j >= n {
							w = canary
						}
						if g != w {
							t.Fatalf("trial %d (outC=%d kk=%d n=%d): c[%d][%d] = %#08x, want %#08x",
								trial, outC, kk, n, oc, j, g, w)
						}
					}
				}
			}
		})
	}
}

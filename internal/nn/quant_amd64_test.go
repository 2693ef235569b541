//go:build amd64 && !purego

package nn

import (
	"math/rand"
	"testing"

	"livenas/internal/cpu"
)

// TestQuantKernelVariantsMatch runs the full driver under each available
// asm tile kernel (AVX2 4x16 where the CPU has it, SSE2 4x8 always) on
// bordered blocks read through their tap tables — odd tap counts, whose pad
// entry points at offset 0, included — and pins exact accumulators against
// the im2colRef panel: the hardware dispatch and the table must never
// change results.
func TestQuantKernelVariantsMatch(t *testing.T) {
	type variant struct {
		name string
		fn   func(kk2 int, a *int16, b *int16, off *int32, c *int32, cn int)
		cols int
	}
	variants := []variant{{"sse2_4x8", qkern4x8s, 8}}
	if cpu.AVX2 {
		variants = append(variants, variant{"avx2_4x16", qkern4x16, 16})
	} else {
		t.Log("no AVX2 on this host; testing SSE2 kernel only")
	}

	savedK, savedC := qkernTile, qkernTileCols
	defer func() { qkernTile, qkernTileCols = savedK, savedC }()

	rng := rand.New(rand.NewSource(21))
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			qkernTile, qkernTileCols = v.fn, v.cols
			for trial := 0; trial < 60; trial++ {
				c := 1 + rng.Intn(9)
				if trial%2 == 0 {
					c |= 1 // an odd tap count: the pad tap
				}
				g := randQuantCase(rng, 1+rng.Intn(12), c, 1+2*rng.Intn(3), 1+rng.Intn(90))
				g.run(t, trial)
			}
		})
	}
}

//go:build amd64 && !purego

package codec

import "livenas/internal/cpu"

// fdct8AVX2 is fdct8Go in AVX2: the row pass is src·dctBasisT and the column
// pass dctBasis·tmp, each output row two float64 vectors of four lanes
// summed over ascending taps from +0 with a VMULPD then a VADDPD, no FMA.
// Requires AVX2; call only when cpu.AVX2.
//
//go:noescape
func fdct8AVX2(src, dst *[64]float64)

// idct8AVX2 is idct8Go in AVX2: the column pass is dctBasisT·src and the
// row pass tmp·dctBasis, with fdct8AVX2's per-lane accumulation. Requires
// AVX2; call only when cpu.AVX2.
//
//go:noescape
func idct8AVX2(src, dst *[64]float64)

// The transforms are chosen once, from the module's one AVX2 probe.
func init() { dctAVX2 = cpu.AVX2 }

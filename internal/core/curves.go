package core

import (
	"math"

	"livenas/internal/vidgen"
)

// Normalized bitrate-to-quality curves (§5.1, Figure 6). The paper observes
// that PSNR-vs-bitrate curves of streams from the same category collapse
// onto each other once normalized to the highest PSNR; the media server
// ships the per-category curve to clients, which use its slope to estimate
// dQvideo/dv without re-encoding at a second bitrate.
//
// We model the curve with the standard logarithmic rate-distortion form
// NQ(v) = log(1 + v/v0) / log(1 + vmax/v0), normalized so NQ(vmax) = 1.
// v0 captures content coding difficulty: high-motion, high-detail
// categories need more rate for the same normalized quality.

// nqRefKbps is the normalisation point (the "highest PSNR" bitrate).
const nqRefKbps = 8000

// curveV0 returns the rate-difficulty parameter v0 (kbps) for a category,
// derived from its motion and detail profile.
func curveV0(cat vidgen.Category) float64 {
	p := vidgen.ParamsFor(cat)
	// Motion 10..260 and detail 0.5..0.9 map to v0 in roughly 150..900.
	return 100 + float64(p.Motion*2.2) + float64(p.Detail*300)
}

// NormalizedQuality returns NQ_type(v) in (0, 1] for bitrate v kbps.
func NormalizedQuality(cat vidgen.Category, kbps float64) float64 {
	if kbps <= 0 {
		return 0
	}
	v0 := curveV0(cat)
	return math.Log(1+kbps/v0) / math.Log(1+nqRefKbps/v0)
}

// NormalizedQualitySlope returns d NQ/dv at bitrate v kbps (per kbps).
func NormalizedQualitySlope(cat vidgen.Category, kbps float64) float64 {
	if kbps <= 0 {
		kbps = 1
	}
	v0 := curveV0(cat)
	return 1 / ((v0 + kbps) * math.Log(1+nqRefKbps/v0))
}

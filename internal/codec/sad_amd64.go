//go:build amd64 && !purego

package codec

// sad8x8SSE2 is sad8x8Go in SSE2: two rows per XMM (MOVQ + MOVHPS) and one
// PSADBW per row pair. SSE2 is baseline amd64, so it needs no probe.
//
//go:noescape
func sad8x8SSE2(cur []uint8, cs int, ref []uint8, rs int) int

// intraSAD8x8SSE2 is intraSAD8x8Go in SSE2: per row pair,
// PSADBW(PMAXUB(p, ce), ce) + PSADBW(PMINUB(p, fl), fl). fl and ce must lie
// in 0..255.
//
//go:noescape
func intraSAD8x8SSE2(cur []uint8, cs int, fl, ce int) int

func init() {
	sad8x8, intraSAD8x8 = sad8x8SSE2, intraSAD8x8SSE2
}

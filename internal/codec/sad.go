package codec

// The 8x8 cost kernels of the encoder's mode decision. Each reads a block
// as eight rows of eight bytes, row y at blk[y*stride:], so blk must hold at
// least 7*stride+8 bytes; the callers slice it to exactly that. init (in
// sad_amd64.go) installs the SSE2 kernels on amd64, where SSE2 is baseline;
// every other build keeps the Go twins below. Both compute the same integer,
// so the choice cannot change a bit of any stream.
var (
	sad8x8      = sad8x8Go
	intraSAD8x8 = intraSAD8x8Go
)

// sad8x8Go returns Σ|cur − ref| over an 8x8 block.
func sad8x8Go(cur []uint8, cs int, ref []uint8, rs int) int {
	var sad int
	for y := 0; y < blockSize; y++ {
		c := cur[y*cs:][:blockSize]
		r := ref[y*rs:][:blockSize]
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// intraSAD8x8Go returns Σ max(p−ce, 0) + max(fl−p, 0) over an 8x8 block:
// for a prediction pred with fl = ⌊pred⌋ and ce = ⌈pred⌉ that is
// Σ int(|p − pred|), the truncated float distance (see intraSAD).
func intraSAD8x8Go(cur []uint8, cs int, fl, ce int) int {
	var sad int
	for y := 0; y < blockSize; y++ {
		for _, p := range cur[y*cs:][:blockSize] {
			sad += max(int(p)-ce, 0) + max(fl-int(p), 0)
		}
	}
	return sad
}

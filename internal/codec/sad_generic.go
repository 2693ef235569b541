//go:build !amd64 || purego

package codec

// The pure-Go twins of the SSE2 cost kernels are the Go loops themselves;
// these builds never install anything else.

func sad8x8SSE2(cur []uint8, cs int, ref []uint8, rs int) int {
	return sad8x8Go(cur, cs, ref, rs)
}

func intraSAD8x8SSE2(cur []uint8, cs int, fl, ce int) int {
	return intraSAD8x8Go(cur, cs, fl, ce)
}

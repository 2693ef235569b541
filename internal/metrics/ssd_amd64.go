//go:build amd64 && !purego

package metrics

// ssdSSE2 is ssdGo in SSE2 over len(a) &^ 15 bytes: per 16 bytes, both
// runs widened to words (PUNPCKLBW/PUNPCKHBW), subtracted (PSUBW) and
// squared and pair-summed (PMADDWD, PMADDWL in Go's assembler) into int32
// lanes, which are widened to int64 before they can overflow. b must be at
// least as long as a.
//
//go:noescape
func ssdSSE2(a, b []uint8) uint64

func init() { useSSE2 = true }

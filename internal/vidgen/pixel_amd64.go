//go:build amd64 && !purego

package vidgen

// pixRowAVX2 is pixRowGo in AVX2, four float64 lanes per step over the
// first len(row) &^ 3 pixels; the caller renders the rest with pixRowGo.
// Every other slice is at least len(row) long. Requires AVX2; call only
// when cpu.AVX2.
//
//go:noescape
func pixRowAVX2(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes)

// pixRowAVX512 is pixRowGo in AVX-512, eight float64 lanes per step over
// the whole row, the last step masked to the row's end. Every other slice
// is at least len(row) long. Requires AVX-512 F, DQ, BW and VL; call only
// when cpu.AVX512.
//
//go:noescape
func pixRowAVX512(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes)

// fillAVX512 is fillGo in AVX-512 for one lattice row: it hashes lattice
// columns ix[0] to ix[0]+n-1 of the row whose rowKey is k into lat, then
// lerps them into dst, eight pixels per step, the last step masked to the
// row's end. ix, omx and wx are at least len(dst) long, lat at least n+16;
// ix is nondecreasing with ix[x+7]+1 - ix[x] <= 15, and n is
// ix[len(dst)-1]-ix[0]+2 (octave.plan). Requires
// AVX-512 F, DQ, BW and VL; call only when cpu.AVX512.
//
//go:noescape
func fillAVX512(dst []float64, ix []int64, omx, wx, lat []float64, n int, k uint64)

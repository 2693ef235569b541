//go:build amd64 && !purego

package vidgen

// pixRowAVX2 is pixRowGo in AVX2, four float64 lanes per step over the
// first len(row) &^ 3 pixels; the caller renders the rest with pixRowGo.
// Every other slice is at least len(row) long. Requires AVX2; call only
// when cpu.AVX2.
//
//go:noescape
func pixRowAVX2(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes)

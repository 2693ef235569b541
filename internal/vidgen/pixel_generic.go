//go:build !amd64 || purego

package vidgen

// The pure-Go twin of the AVX2 pixel-row kernel is pixRowGo itself; these
// builds never select anything else (pixAVX2 stays false).

func pixRowAVX2(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes) {
	pixRowGo(row, on, t1, b1, t2, b2, tG, bG, k, 0)
}

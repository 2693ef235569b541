//go:build !amd64 || purego

package vidgen

// The pure-Go twins of the pixel-row and lattice-row kernels are pixRowGo
// and fillGo themselves; these builds never select anything else
// (pixAVX2 and pixAVX512 stay false).

func pixRowAVX2(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes) {
	pixRowGo(row, on, t1, b1, t2, b2, tG, bG, k, 0)
}

func pixRowAVX512(row, on []uint8, t1, b1, t2, b2, tG, bG []float64, k *pixLanes) {
	pixRowGo(row, on, t1, b1, t2, b2, tG, bG, k, 0)
}

func fillAVX512(dst []float64, ix []int64, omx, wx, lat []float64, n int, k uint64) {
	fillGo(dst, ix, omx, wx, k)
}

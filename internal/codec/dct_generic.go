//go:build !amd64 || purego

package codec

// The pure-Go twins of the AVX2 transforms are the dct1d passes themselves;
// these builds never select anything else (dctAVX2 stays false).

func fdct8AVX2(src, dst *[64]float64) { fdct8Go(src, dst) }

func idct8AVX2(src, dst *[64]float64) { idct8Go(src, dst) }

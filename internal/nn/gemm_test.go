package nn

import (
	"math"
	"math/rand"
	"testing"
)

// gemmCase is one implicit-GEMM problem: a rows × w output window whose B
// is b read through off (b rows bs apart), and the same B as an explicit
// kk × rows·w panel built without the table, the reference's input.
type gemmCase struct {
	off         []int32
	b, panel    []float32
	rows, w, bs int
	what        string
	flip        bool
}

// borderedCase is a k×k conv's row block over c channels: a random image
// (seeded with NaN, ±Inf and ±0), its zero-bordered block with a plane
// height of at least rows+2·pad, and the block's tap table — flipped or
// not — next to the im2colRef panel of the same block.
func borderedCase(rng *rand.Rand, c, k, w int, flip bool) gemmCase {
	pad := k / 2
	h := 1 + rng.Intn(12)
	y0 := rng.Intn(h)
	rows := 1 + rng.Intn(h-y0)
	bh, bw := rows+2*pad+rng.Intn(2), w+2*pad
	x := specialF32(c*h*w, rng)
	blk := make([]float32, c*bh*bw)
	for i := range blk {
		blk[i] = float32(math.NaN()) // rows borderBlock leaves are never read
	}
	borderBlock(x, c, h, w, pad, y0, rows, bh, blk)
	off := make([]int32, c*k*k)
	tapOffsets(off, c, k, bh, bw, flip)
	panel := make([]float32, c*k*k*rows*w)
	im2colRef(x, c, h, w, k, y0, y0+rows, flip, panel)
	return gemmCase{off, blk, panel, rows, w, bw, "bordered", flip}
}

// tableCase is a random table: kk offsets anywhere in a random b, rows bs
// apart, and the panel read from it element by element.
func tableCase(rng *rand.Rand, kk, w int) gemmCase {
	rows := 1 + rng.Intn(3)
	bs := w + rng.Intn(5)
	span := 1 + rng.Intn(4*w+kk)
	off := make([]int32, kk)
	for p := range off {
		off[p] = int32(rng.Intn(span))
	}
	b := specialF32(span+(rows-1)*bs+w, rng)
	n := rows * w
	panel := make([]float32, kk*n)
	for p, o := range off {
		for y := 0; y < rows; y++ {
			copy(panel[p*n+y*w:p*n+(y+1)*w], b[int(o)+y*bs:])
		}
	}
	return gemmCase{off, b, panel, rows, w, bs, "random table", false}
}

// specialF32 is n standard normals with about one in eight replaced by NaN,
// ±Inf or ±0.
func specialF32(n int, rng *rand.Rand) []float32 {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		if rng.Intn(8) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// TestConvKernelVariantsMatch runs gemmConvBias under each f32 tile set —
// narrow (4×8, 1×8) and, where the init installed them, wide (8×8 and 4×16
// on top: AVX2 on amd64, the Go twins elsewhere) — and pins every output
// against a plain sequential GEMM over an explicit panel built without the
// offset table: the table, the dispatch and the relu store must never
// change a result. B is either a k = 1, 3 or 5 bordered block with its
// (possibly flipped) table or a random table, and carries NaN, ±Inf and ±0.
// outC up to 20 and w up to 90 reach every 8/4/1-row and 16/8/4/scalar-column
// remainder at random, and a sweep of w = 1..33 at outC = 13 reaches each
// width remainder under every row group; each C channel is padded with a
// canary no tile may overwrite.
// Non-canary NaNs compare as a class: a NaN's payload depends on which
// operand the hardware propagates, which no ReLU-free consumer reads.
func TestConvKernelVariantsMatch(t *testing.T) {
	type tileSet struct {
		name        string
		k8x8, k4x16 func(kk int, a *float32, b *float32, off *int32, bias *float32, c *float32, cn int, relu bool)
	}
	saved8, saved16 := kernTile8x8, kernTile4x16
	defer func() { kernTile8x8, kernTile4x16 = saved8, saved16 }()
	sets := []tileSet{{name: "narrow"}}
	if saved8 != nil {
		sets = append(sets, tileSet{"wide", saved8, saved16})
	} else {
		t.Log("no wide tiles on this host; testing the narrow kernels only")
	}

	const canary = 0x7fc0dead // a NaN no kernel computes
	rng := rand.New(rand.NewSource(27))
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			kernTile8x8, kernTile4x16 = set.k8x8, set.k4x16
			check := func(trial int, g gemmCase, outC int, relu bool) {
				t.Helper()
				w, kk := g.w, len(g.off)
				n := g.rows * w
				cs := n + 3
				a, bias := specialF32(outC*kk, rng), specialF32(outC, rng)
				for i := range a { // finite weights, as in a trained conv
					if a[i] != a[i] || math.IsInf(float64(a[i]), 0) {
						a[i] = 0.5
					}
				}

				want := make([]float32, outC*cs)
				for oc := 0; oc < outC; oc++ {
					for j := 0; j < n; j++ {
						s := bias[oc]
						for p := 0; p < kk; p++ {
							s += float32(a[oc*kk+p] * g.panel[p*n+j])
						}
						if relu && !(s > 0) {
							s = 0
						}
						want[oc*cs+j] = s
					}
				}
				got := make([]float32, outC*cs)
				for i := range got {
					got[i] = math.Float32frombits(canary)
				}
				gemmConvBias(a, bias, g.b, g.off, outC, g.rows, w, g.bs, got, cs, make([]float32, 8*kk), relu)
				for oc := 0; oc < outC; oc++ {
					for j := 0; j < cs; j++ {
						gv, wv := got[oc*cs+j], want[oc*cs+j]
						gb, wb := math.Float32bits(gv), math.Float32bits(wv)
						if j >= n {
							wb = canary
						} else if gv != gv && wv != wv {
							continue
						}
						if gb != wb {
							t.Fatalf("trial %d (%s, flip %v: outC=%d kk=%d rows=%d w=%d relu=%v): c[%d][%d] = %#08x, want %#08x",
								trial, g.what, g.flip, outC, kk, g.rows, w, relu, oc, j, gb, wb)
						}
					}
				}
			}
			for trial := 0; trial < 400; trial++ {
				outC := 1 + rng.Intn(20)
				w := 1 + rng.Intn(90)
				var g gemmCase
				switch {
				case trial%4 == 0: // the SR model's tables: 9, 36 and 72 taps
					g = borderedCase(rng, []int{1, 4, 8}[trial/4%3], 3, w, rng.Intn(2) == 1)
				case trial%4 == 1:
					g = tableCase(rng, 1+rng.Intn(90), w)
				default:
					g = borderedCase(rng, 1+rng.Intn(9), []int{1, 3, 5}[rng.Intn(3)], w, rng.Intn(2) == 1)
				}
				check(trial, g, outC, trial%3 != 0)
			}
			// Every width remainder mod 8 (and mod 16) under every row
			// group: outC 13 is 8+4+1 rows with the wide tiles and 4+4+4+1
			// without, so each w reaches the 8-, 4- and 1-row forms of the
			// 8-column, 4-column and scalar edges.
			for w := 1; w <= 33; w++ {
				for _, relu := range []bool{false, true} {
					check(-w, borderedCase(rng, 8, 3, w, relu), 13, relu)
					check(-w, tableCase(rng, 1+rng.Intn(40), w), 13, relu)
				}
			}
		})
	}
}

// TestBorderedBlockMatchesIm2col pins the bordered block and its tap
// tables to the explicit panel they replace: for k = 1, 3, 5, every row
// block, both tap orientations and both element types, the block read
// through the table gives every im2colRef row bit for bit (NaN payloads
// and −0 included), and im2col over the block (the weight gradient's
// panel) is im2colRef.
func TestBorderedBlockMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 60; trial++ {
		c, k := 1+rng.Intn(9), 1+2*rng.Intn(3)
		h, w := 1+rng.Intn(30), 1+rng.Intn(45)
		pad := k / 2
		br := 1 + rng.Intn(h)
		bh, bw := br+2*pad, w+2*pad
		x := specialF32(c*h*w, rng)
		xq := randI8(c*h*w, rng)
		for _, flip := range []bool{false, true} {
			off := make([]int32, c*k*k)
			tapOffsets(off, c, k, bh, bw, flip)
			for y0 := 0; y0 < h; y0 += br {
				rows := min(br, h-y0)
				n := rows * w
				blk := make([]float32, c*bh*bw)
				borderBlock(x, c, h, w, pad, y0, rows, bh, blk)
				want := make([]float32, len(off)*n)
				im2colRef(x, c, h, w, k, y0, y0+rows, flip, want)
				got := make([]float32, len(want))
				im2col(blk, off, rows, w, bw, got)
				blkQ := make([]int16, c*bh*bw)
				borderBlock(xq, c, h, w, pad, y0, rows, bh, blkQ)
				wantQ := make([]int16, len(want))
				im2colRef(xq, c, h, w, k, y0, y0+rows, flip, wantQ)
				for p, o := range off {
					for y := 0; y < rows; y++ {
						for xx := 0; xx < w; xx++ {
							i, bi := p*n+y*w+xx, int(o)+y*bw+xx
							if math.Float32bits(blk[bi]) != math.Float32bits(want[i]) ||
								math.Float32bits(got[i]) != math.Float32bits(want[i]) || blkQ[bi] != wantQ[i] {
								t.Fatalf("c=%d k=%d %dx%d block y0=%d rows=%d flip=%v: tap %d at (%d,%d): block %#08x, im2col %#08x, int16 %d, want %#08x / %d",
									c, k, h, w, y0, rows, flip, p, y, xx, math.Float32bits(blk[bi]),
									math.Float32bits(got[i]), blkQ[bi], math.Float32bits(want[i]), wantQ[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestEdgeTilesMatchRef pins each 4-column edge tile — kern8x4 on a [kk][8]
// packed A, kern4x4 on a [kk][4] one, kern1x4 on an unpacked row — against
// a plain sequential GEMM over the explicit panel, as the Go twins ("go")
// and, on amd64 without purego, the SSE2 tiles ("asm"). B is a bordered
// block or a random table carrying NaN, ±Inf and ±0, read at any column;
// every fifth trial has −0 weights and biases, so an all −0 sum must
// survive without relu and store +0 with it. Each C row is padded with a
// canary the tile must not overwrite.
func TestEdgeTilesMatchRef(t *testing.T) {
	const canary = 0x7fc0dead
	for _, set := range edgeTileSets {
		t.Run(set.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			for trial := 0; trial < 600; trial++ {
				w := 4 + rng.Intn(20)
				var g gemmCase
				if trial%2 == 0 {
					g = borderedCase(rng, 1+rng.Intn(9), []int{1, 3, 5}[rng.Intn(3)], w, rng.Intn(2) == 1)
				} else {
					g = tableCase(rng, 1+rng.Intn(90), w)
				}
				mr, relu := []int{8, 4, 1}[trial%3], trial%4 < 2
				kk, n := len(g.off), g.rows*w
				a, bias := specialF32(mr*kk, rng), specialF32(mr, rng)
				for i := range a {
					if a[i] != a[i] || math.IsInf(float64(a[i]), 0) {
						a[i] = 0.5
					}
				}
				if trial%5 == 0 {
					negZero := float32(math.Copysign(0, -1))
					for i := range a {
						a[i] = negZero
					}
					for i := range bias {
						bias[i] = negZero
					}
				}
				apack := make([]float32, mr*kk)
				packA(a, 0, mr, kk, apack)
				y, x0, cn := rng.Intn(g.rows), rng.Intn(w-3), 4+rng.Intn(3)
				got := make([]float32, mr*cn)
				for i := range got {
					got[i] = math.Float32frombits(canary)
				}
				bp := &g.b[y*g.bs+x0]
				switch mr {
				case 8:
					set.t8x4(kk, &apack[0], bp, &g.off[0], &bias[0], &got[0], cn, relu)
				case 4:
					set.t4x4(kk, &apack[0], bp, &g.off[0], &bias[0], &got[0], cn, relu)
				default:
					set.t1x4(kk, &a[0], bp, &g.off[0], &bias[0], &got[0], relu)
				}
				for r := 0; r < mr; r++ {
					for j := 0; j < cn; j++ {
						wb := uint32(canary)
						if j < 4 {
							s := bias[r]
							for p := 0; p < kk; p++ {
								s += float32(a[r*kk+p] * g.panel[p*n+y*w+x0+j])
							}
							if relu && !(s > 0) {
								s = 0
							}
							if gv := got[r*cn+j]; gv != gv && s != s {
								continue
							}
							wb = math.Float32bits(s)
						}
						if gb := math.Float32bits(got[r*cn+j]); gb != wb {
							t.Fatalf("trial %d (%s, %d×4, kk=%d, column %d, relu %v): c[%d][%d] = %#08x, want %#08x",
								trial, g.what, mr, kk, x0, relu, r, j, gb, wb)
						}
					}
				}
			}
		})
	}
}

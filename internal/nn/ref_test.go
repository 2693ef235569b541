package nn

// Scalar reference kernels: the seed implementation's nested conv tap loop,
// clone-and-mask ReLU and per-element PixelShuffle, kept verbatim as the
// ground truth the kernel engine is differentially tested against
// (kernel_test.go asserts the GEMM forward and input gradient are
// bit-identical and the parameter gradients within 1e-5 of their
// absolute-value sums), plus the explicit im2col panel the engine's
// bordered blocks are held to. They are oracles, not an engine: nothing
// outside the tests can reach them.
//
// One deliberate change from the seed: the conv forward's `if wv == 0
// { continue }` tap skip is gone. It made compute cost data-dependent —
// zero-initialised final layers trained "for free" until their weights
// moved — which skewed calibration against sr.Device's virtual clock,
// whose charges are by nominal MACs. Both paths now always perform the
// nominal MAC count. (Adding a wv==0 tap contributes wv*x == ±0, which
// cannot change any sum, so removing the skip does not change results.)

// At, Set and Clone are the per-element accessors and deep copy the seed
// loops were written with; only the oracles and tests use them now.

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set writes the element at (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	o := &Tensor{C: t.C, H: t.H, W: t.W, Data: make([]float32, len(t.Data))}
	copy(o.Data, t.Data)
	return o
}

// convRefForward computes the convolution of x into out (both preallocated,
// out fully overwritten) with the scalar tap loop.
func convRefForward(l *Conv2D, x, out *Tensor) {
	h, w := x.H, x.W
	pad := l.K / 2
	for oc := 0; oc < l.OutC; oc++ {
		bias := l.Bias[oc]
		dst := out.Data[oc*h*w : (oc+1)*h*w]
		for i := range dst {
			dst[i] = bias
		}
		for ic := 0; ic < l.InC; ic++ {
			src := x.Data[ic*h*w : (ic+1)*h*w]
			wbase := ((oc*l.InC + ic) * l.K) * l.K
			for ky := 0; ky < l.K; ky++ {
				dy := ky - pad
				for kx := 0; kx < l.K; kx++ {
					dx := kx - pad
					wv := l.Weight[wbase+ky*l.K+kx]
					// Valid overlap rows/cols for this kernel tap.
					y0, y1 := max(0, -dy), min(h, h-dy)
					x0, x1 := max(0, -dx), min(w, w-dx)
					for y := y0; y < y1; y++ {
						srow := src[(y+dy)*w:]
						drow := dst[y*w:]
						for xx := x0; xx < x1; xx++ {
							drow[xx] += float32(wv * srow[xx+dx])
						}
					}
				}
			}
		}
	}
}

// convRefBackward accumulates parameter gradients into gradW/gradB and
// writes the input gradient into dIn (preallocated and zeroed) with the
// scalar tap loop.
func convRefBackward(l *Conv2D, x, dOut, dIn *Tensor) {
	h, w := x.H, x.W
	pad := l.K / 2
	for oc := 0; oc < l.OutC; oc++ {
		g := dOut.Data[oc*h*w : (oc+1)*h*w]
		// Bias gradient.
		var gb float32
		for _, v := range g {
			gb += v
		}
		l.gradB[oc] += gb
		for ic := 0; ic < l.InC; ic++ {
			src := x.Data[ic*h*w : (ic+1)*h*w]
			din := dIn.Data[ic*h*w : (ic+1)*h*w]
			wbase := ((oc*l.InC + ic) * l.K) * l.K
			for ky := 0; ky < l.K; ky++ {
				dy := ky - pad
				for kx := 0; kx < l.K; kx++ {
					dx := kx - pad
					y0, y1 := max(0, -dy), min(h, h-dy)
					x0, x1 := max(0, -dx), min(w, w-dx)
					var gw float32
					wv := l.Weight[wbase+ky*l.K+kx]
					for y := y0; y < y1; y++ {
						srow := src[(y+dy)*w:]
						drow := din[(y+dy)*w:]
						grow := g[y*w:]
						for xx := x0; xx < x1; xx++ {
							gv := grow[xx]
							gw += float32(gv * srow[xx+dx])
							drow[xx+dx] += float32(gv * wv)
						}
					}
					l.gradW[wbase+ky*l.K+kx] += gw
				}
			}
		}
	}
}

// im2colRef is the explicit column panel the GEMM engine built before its
// B became a bordered block read through a tap offset table. It packs rows
// [y0, y1) of a (inC, h, w) channel-major tensor for a k×k stride-1
// "same"-padded conv into dst, a matrix of inC*k*k rows and n = (y1-y0)*w
// columns:
//
//	dst[((ic*k+ky)*k+kx)*n + (y-y0)*w + x] = src[ic][y+ky-pad][x+kx-pad]
//
// (+0 outside the image). With flip set the tap offsets are negated
// (dy = pad-ky, dx = pad-kx), the input-gradient panel. It is the oracle the
// bordered block and its tables are held to, for both element types.
func im2colRef[T float32 | int16](src []T, inC, h, w, k, y0, y1 int, flip bool, dst []T) {
	pad := k / 2
	n := (y1 - y0) * w
	for ic := 0; ic < inC; ic++ {
		ch := src[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			dy := ky - pad
			if flip {
				dy = -dy
			}
			for kx := 0; kx < k; kx++ {
				dx := kx - pad
				if flip {
					dx = -dx
				}
				row := dst[((ic*k+ky)*k+kx)*n : ((ic*k+ky)*k+kx)*n+n]
				for y := y0; y < y1; y++ {
					for x := 0; x < w; x++ {
						sy, sx := y+dy, x+dx
						var v T
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							v = ch[sy*w+sx]
						}
						row[(y-y0)*w+x] = v
					}
				}
			}
		}
	}
}

// reluRefForward is the seed ReLU: a rectified copy of x plus the []bool
// sign mask its backward consumes.
func reluRefForward(x *Tensor) (*Tensor, []bool) {
	out := x.Clone()
	mask := make([]bool, len(x.Data))
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			mask[i] = true
		}
	}
	return out, mask
}

// reluRefBackward is the seed ReLU backward: a masked copy of dOut.
func reluRefBackward(dOut *Tensor, mask []bool) *Tensor {
	dIn := dOut.Clone()
	for i := range dIn.Data {
		if !mask[i] {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// pixelShuffleRefForward is the seed's per-element At/Set loop.
func pixelShuffleRefForward(s int, x *Tensor) *Tensor {
	outC := x.C / (s * s)
	out := NewTensor(outC, x.H*s, x.W*s)
	for oc := 0; oc < outC; oc++ {
		for sy := 0; sy < s; sy++ {
			for sx := 0; sx < s; sx++ {
				ic := oc*s*s + sy*s + sx
				for y := 0; y < x.H; y++ {
					for xx := 0; xx < x.W; xx++ {
						out.Set(oc, y*s+sy, xx*s+sx, x.At(ic, y, xx))
					}
				}
			}
		}
	}
	return out
}

// pixelShuffleRefBackward is the seed's inverse per-element loop.
func pixelShuffleRefBackward(s int, dOut *Tensor) *Tensor {
	inH, inW := dOut.H/s, dOut.W/s
	dIn := NewTensor(dOut.C*s*s, inH, inW)
	for oc := 0; oc < dOut.C; oc++ {
		for sy := 0; sy < s; sy++ {
			for sx := 0; sx < s; sx++ {
				ic := oc*s*s + sy*s + sx
				for y := 0; y < inH; y++ {
					for xx := 0; xx < inW; xx++ {
						dIn.Set(ic, y, xx, dOut.At(oc, y*s+sy, xx*s+sx))
					}
				}
			}
		}
	}
	return dIn
}

package nn

import "math"

// Quantized inference fast path.
//
// Scheme (standard symmetric int8, cf. the convolutional-LUT streaming-SR
// line in PAPERS.md):
//
//   - Weights: per-output-channel symmetric, scaleW[oc] = maxAbs(row)/127,
//     wq = round(w/scaleW) ∈ [-127, 127], quantized once per model sync.
//   - Activations: per-tensor symmetric with a fixed [0,127] range for the
//     ReLU-positive hidden activations; the scale for layer i's input comes
//     from calibration (the trainer's running activation maxima — see
//     internal/sr). Inputs are pixels/255 ∈ [0,1], quantized with the fixed
//     scale 1/127 through a 256-entry LUT.
//   - Accumulation: exact int32 (gemm_int8.go). The epilogue fuses
//     dequantize + bias + ReLU + requantize into one pass over the
//     accumulator panel: with m[oc] = scaleW[oc]·scaleX/scaleXNext and
//     bh[oc] = bias[oc]/scaleXNext + 0.5, the next layer's input is
//     int16(trunc(clamp(acc·m + bh, 0, 127))) — round-half-up ReLU-clamped
//     requantization in 4 float ops. The final conv dequantizes to float32
//     residuals instead (m[oc] = scaleW[oc]·scaleX, plain f32 bias) for the
//     pixel-shuffle + residual-add tail.
//
// Everything after quantization is exact integer or clamped-float math, so
// the int8 path is bit-deterministic across kernel variants and worker
// counts by construction; its *accuracy* against the f32 path is what the
// online quality gate in internal/sr watches.
type QuantConv struct {
	InC, OutC, K int
	ScaleW       []float32 // per-output-channel weight scales
	Bias         []float32 // f32 biases (folded into the epilogue)
	kkEvn        int       // inC*K*K rounded up to even (tap pairs)
	wq           []int16   // row-major [outC][kkEvn] quantized weights
	wqPack       []int16   // pair-interleaved 4-row blocks for the vector kernels
}

// QuantizeConv2D quantizes a Conv2D's weights per output channel. The
// returned QuantConv is immutable; re-quantize after weight syncs.
func QuantizeConv2D(l *Conv2D) *QuantConv {
	kk := l.InC * l.K * l.K
	ke := kkEven(l.InC, l.K)
	q := &QuantConv{
		InC: l.InC, OutC: l.OutC, K: l.K,
		ScaleW: make([]float32, l.OutC),
		Bias:   append([]float32(nil), l.Bias...),
		kkEvn:  ke,
		wq:     make([]int16, l.OutC*ke),
	}
	for oc := 0; oc < l.OutC; oc++ {
		row := l.Weight[oc*kk : (oc+1)*kk]
		var amax float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > amax {
				amax = v
			}
		}
		scale := amax / 127
		if scale == 0 {
			scale = 1 // all-zero channel (e.g. ZeroInit tail layer): wq stays 0
		}
		q.ScaleW[oc] = scale
		dst := q.wq[oc*ke : oc*ke+kk]
		for p, v := range row {
			dst[p] = int16(math.Round(float64(v / scale)))
		}
	}
	q.wqPack = packWqBlocks(q.wq, l.OutC, ke)
	return q
}

// ForwardRequant runs the quantized conv over a (InC, h, w) int8-in-int16
// activation tensor and writes the next layer's (OutC, h, w) quantized
// activation, with the ReLU + requantization epilogue fused
// (m/bh as described on QuantConv; bh includes the +0.5 rounding term).
// Scratch comes from the arena; steady state allocates nothing.
func (q *QuantConv) ForwardRequant(a *Arena, x []int16, h, w int, m, bh []float32, out []int16) {
	q.forward(a, x, h, w, m, bh, out, nil)
}

// ForwardDequant runs the quantized conv and dequantizes the accumulator to
// float32 (out[oc][p] = acc·m[oc] + b[oc]) for the network tail.
func (q *QuantConv) ForwardDequant(a *Arena, x []int16, h, w int, m, b []float32, out []float32) {
	q.forward(a, x, h, w, m, b, nil, out)
}

// forward runs the conv block by block, like Conv2D.Infer: each row block is
// copied into a zero-bordered int16 block that the kernels read through
// one tap offset table per call. An odd tap count's pad entry points at
// offset 0: its quantized weight is 0, so the exact sum cannot move.
func (q *QuantConv) forward(a *Arena, x []int16, h, w int, m, b []float32, outQ []int16, outF []float32) {
	plane := h * w
	br := convBlockRows(w, h)
	pad := q.K / 2
	bh, bw := br+2*pad, w+2*pad
	off := a.GetBufI32(q.kkEvn)
	tapOffsets(off, q.InC, q.K, bh, bw, false)
	if kk := q.InC * q.K * q.K; kk < q.kkEvn {
		off[kk] = 0
	}
	blk := a.GetBufI16(q.InC * bh * bw)
	acc := a.GetBufI32(q.OutC * br * w)
	for y0 := 0; y0 < h; y0 += br {
		rows := min(br, h-y0)
		n := rows * w
		borderBlock(x, q.InC, h, w, pad, y0, rows, bh, blk)
		gemmInt8Conv(q.wq, q.wqPack, blk, off, q.OutC, rows, w, bw, acc, n)
		for oc := 0; oc < q.OutC; oc++ {
			seg := acc[oc*n : (oc+1)*n]
			o := oc*plane + y0*w
			if outQ != nil {
				requantReLU(seg, m[oc], b[oc], outQ[o:o+n])
			} else {
				dequantInto(seg, m[oc], b[oc], outF[o:o+n])
			}
		}
	}
	a.PutBufI32(acc)
	a.PutBufI16(blk)
	a.PutBufI32(off)
}

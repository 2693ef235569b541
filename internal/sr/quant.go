package sr

import (
	"math"

	"livenas/internal/frame"
	"livenas/internal/nn"
)

// QuantModel is an immutable int8-quantized snapshot of a Model, the unit
// of the inference fast path: per-channel symmetric weights, activation
// scales from the model's calibration statistics (the trainer's running
// ReLU maxima), and the requantization folded into each conv's epilogue
// (nn.QuantConv). A QuantModel is rebuilt from the master model at every
// Processor.Sync — quantization is cheap (one pass over ~5k weights) next
// to a single frame's inference.
//
// All methods are safe for concurrent use: the quantized weights are
// read-only after construction, scratch comes from the internally-locked
// arena, and writes go to caller-disjoint output regions. Combined with the
// exactness of the int8 kernels (see internal/nn/gemm_int8.go) this makes
// quantized inference byte-identical for any pool size or strip/patch
// decomposition — pinned by TestQuantSuperResolveDeterministicAcrossPools.
type QuantModel struct {
	Scale int
	chans int
	convs [3]*nn.QuantConv

	// Per-channel fused epilogue coefficients (see nn.QuantConv): requant
	// multiplier + bias(+0.5) for the two hidden layers, dequant multiplier
	// + f32 bias for the tail.
	mReq1, bReq1 []float32
	mReq2, bReq2 []float32
	mDeq, bDeq   []float32

	lut   [256]int16 // pixel → int8 input code (scale 1/127 over [0,1])
	arena *nn.Arena
	pool  *nn.Pool
}

// quantStripRows is the fixed LR strip height of strip-parallel quantized
// inference. Like the f32 engine's row blocks it depends only on the shape,
// never on the pool size, so the strip partition — and the output — is
// reproducible everywhere.
const quantStripRows = 96

// NewQuantModel quantizes m's current weights using its calibration
// statistics. Uncalibrated models (zero stats) fall back to unit activation
// maxima — workable scales for residual SR where hidden activations are
// O(1), refined as soon as calibration data arrives.
func NewQuantModel(m *Model) *QuantModel {
	m.mu.RLock()
	defer m.mu.RUnlock()
	q := &QuantModel{
		Scale: m.Scale,
		chans: m.Channels,
		arena: nn.NewArena(),
		pool:  m.pool,
	}
	for i, c := range m.convs {
		q.convs[i] = nn.QuantizeConv2D(c)
	}

	const xs0 = 1.0 / 127 // input scale: pixels/255 ∈ [0,1]
	act := m.calibMax
	for i := range act {
		if act[i] <= 0 {
			act[i] = 1
		}
	}
	xs1 := act[0] / 127
	xs2 := act[1] / 127

	mk := func(c *nn.QuantConv, sx, sxNext float32) (mv, bv []float32) {
		mv = make([]float32, c.OutC)
		bv = make([]float32, c.OutC)
		for oc := range mv {
			mv[oc] = c.ScaleW[oc] * sx / sxNext
			bv[oc] = c.Bias[oc]/sxNext + 0.5
		}
		return
	}
	q.mReq1, q.bReq1 = mk(q.convs[0], xs0, xs1)
	q.mReq2, q.bReq2 = mk(q.convs[1], xs1, xs2)
	q.mDeq = make([]float32, q.convs[2].OutC)
	for oc := range q.mDeq {
		q.mDeq[oc] = q.convs[2].ScaleW[oc] * xs2
	}
	q.bDeq = q.convs[2].Bias

	for v := range q.lut {
		q.lut[v] = int16(math.Round(float64(v) * 127 / 255))
	}
	return q
}

// SuperResolve upscales lr by the model's scale: bilinear skip plus the
// int8 residual, computed strip-parallel on the kernel pool with a fixed
// strip decomposition (quantStripRows) and per-strip halos, so the output
// is byte-identical at any pool size. Each strip resizes its own rows of
// the skip before enhancing them.
func (q *QuantModel) SuperResolve(lr *frame.Frame) *frame.Frame {
	out := frame.New(lr.W*q.Scale, lr.H*q.Scale)
	n := (lr.H + quantStripRows - 1) / quantStripRows
	q.pool.Run(n, func(i int) {
		y0 := i * quantStripRows
		y1 := min(y0+quantStripRows, lr.H)
		lr.ResizeBilinearRows(out, y0*q.Scale, y1*q.Scale)
		q.EnhanceRegion(lr, 0, y0, lr.W, y1, out)
	})
	return out
}

// EnhanceRegion runs quantized SR over the LR cell [x0,x1)×[y0,y1) of lr
// and adds the residual into the corresponding scaled region of out, which
// must already hold the bilinear upsample of lr (the skip connection). The
// cell is expanded by the network's receptive-field halo before inference
// and the halo is cropped away again, so region boundaries are invisible:
// enhancing a frame cell-by-cell equals enhancing it whole. Safe to call
// concurrently for disjoint cells.
func (q *QuantModel) EnhanceRegion(lr *frame.Frame, x0, y0, x1, y1 int, out *frame.Frame) {
	s := q.Scale
	left, top := max(0, x0-haloLR), max(0, y0-haloLR)
	right, bot := min(lr.W, x1+haloLR), min(lr.H, y1+haloLR)
	cw, ch := right-left, bot-top
	a := q.arena

	// Quantize the input cell through the pixel LUT.
	qx := a.GetBufI16(cw * ch)
	for y := top; y < bot; y++ {
		src := lr.Pix[y*lr.W+left : y*lr.W+right]
		dst := qx[(y-top)*cw : (y-top)*cw+cw]
		for i, v := range src {
			dst[i] = q.lut[v]
		}
	}

	h1 := a.GetBufI16(q.chans * cw * ch)
	q.convs[0].ForwardRequant(a, qx, ch, cw, q.mReq1, q.bReq1, h1)
	a.PutBufI16(qx)
	h2 := a.GetBufI16(q.chans * cw * ch)
	q.convs[1].ForwardRequant(a, h1, ch, cw, q.mReq2, q.bReq2, h2)
	a.PutBufI16(h1)
	res := a.Get(s*s, ch, cw)
	q.convs[2].ForwardDequant(a, h2, ch, cw, q.mDeq, q.bDeq, res.Data)
	a.PutBufI16(h2)
	// Residual add over the target region only (halo rows/cols drop away).
	addResidual(res, s, left, top, out, x0, y0, x1, y1)
	a.Put(res)
}

// ArenaStats reports the quantized path's arena free-list hits and misses.
func (q *QuantModel) ArenaStats() (hits, misses int64) { return q.arena.Stats() }

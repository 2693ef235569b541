package nn

import (
	"math"
	"math/rand"
)

// KernelConfigurable is implemented by layers that run on the kernel engine
// (arena-recycled tensors, pooled row-block parallelism). Model owners call
// SetKernelContext once at construction; layers with a nil arena/pool fall
// back to plain allocation and inline execution.
type KernelConfigurable interface {
	SetKernelContext(a *Arena, p *Pool)
}

// ConfigureKernels applies an arena/pool pair to every layer that supports
// the kernel engine.
func ConfigureKernels(layers []Layer, a *Arena, p *Pool) {
	for _, l := range layers {
		if kc, ok := l.(KernelConfigurable); ok {
			kc.SetKernelContext(a, p)
		}
	}
}

// Conv2D is a 2-D convolution with odd square kernels, stride 1 and "same"
// zero padding. Weight layout: [outC][inC][K][K].
//
// The forward/backward hot path is an implicit register-blocked GEMM
// (gemm.go, im2col.go): each row block is copied once into a zero-bordered
// block that the micro-kernels read through a tap offset table, so the
// block stays cache-resident, and blocks run in parallel on the kernel
// pool. The GEMM forward is bit-identical to the scalar tap loop it
// replaced (the differential oracle in ref_test.go) by construction.
type Conv2D struct {
	InC, OutC, K int
	Weight       []float32
	Bias         []float32
	gradW        []float32
	gradB        []float32
	params       []Param // cached Params() result; built at construction
	lastIn       *Tensor
	arena        *Arena
	pool         *Pool

	// fwdTask/bwdTask are the block workers submitted to pool.Run. They are
	// bound once (method values allocate a closure) in SetKernelContext so
	// the steady-state hot path allocates nothing; per-call state travels
	// through the run struct, valid only while Infer/Backward is on the
	// stack, so a Conv2D instance runs one pass at a time; parallel samples
	// use CloneShared instances.
	fwdTask func(int)
	bwdTask func(int)
	run     struct {
		x, out, dOut, dIn *Tensor
		br                int
		relu              bool
		off, offD         []int32 // tap tables: x's block, dOut's flipped
		a2, zb, partial   []float32
	}
}

// NewConv2D creates a convolution with He-normal initialised weights.
func NewConv2D(inC, outC, k int, rng *rand.Rand) *Conv2D {
	if k%2 == 0 {
		panic("nn: Conv2D kernel must be odd")
	}
	l := &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: make([]float32, outC*inC*k*k),
		Bias:   make([]float32, outC),
		gradW:  make([]float32, outC*inC*k*k),
		gradB:  make([]float32, outC),
	}
	std := math.Sqrt(2.0 / float64(inC*k*k))
	for i := range l.Weight {
		l.Weight[i] = float32(rng.NormFloat64() * std)
	}
	l.params = []Param{{W: l.Weight, Grad: l.gradW}, {W: l.Bias, Grad: l.gradB}}
	l.SetKernelContext(nil, nil) // nil-safe defaults: inline pool, allocating arena
	return l
}

// ZeroInit zeroes weights and biases; used for the final layer of residual
// SR networks so the initial network output equals the bilinear skip.
func (l *Conv2D) ZeroInit() {
	for i := range l.Weight {
		l.Weight[i] = 0
	}
	for i := range l.Bias {
		l.Bias[i] = 0
	}
}

// SetKernelContext implements KernelConfigurable.
func (l *Conv2D) SetKernelContext(a *Arena, p *Pool) {
	l.arena, l.pool = a, p
	l.fwdTask = l.forwardBlock
	l.bwdTask = l.backwardBlock
}

// CloneShared returns a Conv2D sharing this layer's weight and bias slices
// (live, not snapshotted) but owning private gradient accumulators and
// input cache. The trainer builds one such clone chain per minibatch sample
// so sample gradients can be computed in parallel and then folded in fixed
// sample order. The clone shares the arena (mutex-protected) and pool.
func (l *Conv2D) CloneShared() *Conv2D {
	c := &Conv2D{
		InC: l.InC, OutC: l.OutC, K: l.K,
		Weight: l.Weight, Bias: l.Bias,
		gradW: make([]float32, len(l.gradW)),
		gradB: make([]float32, len(l.gradB)),
	}
	c.params = []Param{{W: c.Weight, Grad: c.gradW}, {W: c.Bias, Grad: c.gradB}}
	c.SetKernelContext(l.arena, l.pool)
	return c
}

// Params implements Layer. The returned slice is cached and shared; callers
// read and write the gradient contents but must not reslice it.
func (l *Conv2D) Params() []Param { return l.params }

// Forward implements Layer: Infer plus the input capture Backward needs.
func (l *Conv2D) Forward(x *Tensor) *Tensor {
	l.lastIn = x
	return l.Infer(x, false)
}

// Infer is the forward pass with nothing kept for Backward. The convolution
// is computed block-by-block: each row block is copied into a zero-bordered
// block and multiplied against the weight matrix through the call's tap
// offset table. Block boundaries come from convBlockRows (shape-derived),
// so the partition — and with it the result — is independent of pool size.
// With relu set, the micro-kernels rectify in their store with
// ReLU.Forward's predicate (anything not > 0, so -0 and NaN too, becomes
// +0): the fused result is bit-identical to Forward followed by
// ReLU.Forward, without the sign bitset only Backward reads.
func (l *Conv2D) Infer(x *Tensor, relu bool) *Tensor {
	if x.C != l.InC {
		panic("nn: Conv2D input channel mismatch")
	}
	out := l.arena.Get(l.OutC, x.H, x.W)
	br := convBlockRows(x.W, x.H)
	pad := l.K / 2
	off := l.arena.GetBufI32(l.InC * l.K * l.K)
	tapOffsets(off, l.InC, l.K, br+2*pad, x.W+2*pad, false)
	l.run.x, l.run.out, l.run.relu, l.run.br, l.run.off = x, out, relu, br, off
	l.pool.Run((x.H+br-1)/br, l.fwdTask)
	l.run.x, l.run.out, l.run.off = nil, nil, nil
	l.arena.PutBufI32(off)
	return out
}

// forwardBlock is the pooled per-block worker for Infer.
func (l *Conv2D) forwardBlock(bi int) {
	x, out, br := l.run.x, l.run.out, l.run.br
	h, w := x.H, x.W
	pad := l.K / 2
	y0 := bi * br
	rows := min(br, h-y0)
	bh, bw := br+2*pad, w+2*pad
	blk := l.arena.GetBuf(l.InC * bh * bw)
	apack := l.arena.GetBuf(8 * len(l.run.off))
	borderBlock(x.Data, l.InC, h, w, pad, y0, rows, bh, blk)
	gemmConvBias(l.Weight, l.Bias, blk, l.run.off, l.OutC, rows, w, bw, out.Data[y0*w:], h*w, apack, l.run.relu)
	l.arena.PutBuf(apack)
	l.arena.PutBuf(blk)
}

// Backward implements Layer. It computes all three gradients with the same
// block structure as the forward:
//
//   - dIn is a convolution of dOut with the tap-flipped, transposed weight
//     matrix (dOut's bordered block read through the flipped table), so it
//     reuses the bit-exact forward GEMM (gemmConvBias) unchanged.
//   - gradW accumulates per-block partials dOut·im2colᵀ (kernDot4), written
//     to disjoint per-block buffers by the pool tasks and folded into the
//     gradient accumulator in ascending block order afterwards — the fold
//     order is fixed by shape, so gradients are deterministic for any pool
//     size.
//   - gradB is a cheap sequential per-channel reduction of dOut, summed in
//     the same order as the scalar reference.
func (l *Conv2D) Backward(dOut *Tensor) *Tensor {
	x := l.lastIn
	dIn := l.arena.Get(l.InC, x.H, x.W)
	h, w := x.H, x.W
	k := l.K
	kk := l.InC * k * k
	kk2 := l.OutC * k * k
	br := convBlockRows(w, h)
	nb := (h + br - 1) / br
	bh, bw := br+2*(k/2), w+2*(k/2)
	off := l.arena.GetBufI32(kk)
	tapOffsets(off, l.InC, k, bh, bw, false)
	offD := l.arena.GetBufI32(kk2)
	tapOffsets(offD, l.OutC, k, bh, bw, true)

	// Transposed, per-output-channel weight matrix for the input gradient:
	// a2[ic][(oc*K+ky)*K+kx] = Weight[oc][ic][ky][kx]. The tap flip lives in
	// offD, not here.
	a2 := l.arena.GetBuf(l.InC * kk2)
	for ic := 0; ic < l.InC; ic++ {
		for oc := 0; oc < l.OutC; oc++ {
			src := l.Weight[((oc*l.InC+ic)*k)*k : ((oc*l.InC+ic)*k+k)*k]
			copy(a2[ic*kk2+oc*k*k:ic*kk2+(oc+1)*k*k], src)
		}
	}
	zb := l.arena.GetBuf(l.InC)
	for i := range zb {
		zb[i] = 0
	}
	partial := l.arena.GetBuf(nb * l.OutC * kk)

	l.run.x, l.run.dOut, l.run.dIn = x, dOut, dIn
	l.run.br, l.run.off, l.run.offD = br, off, offD
	l.run.a2, l.run.zb, l.run.partial = a2, zb, partial
	l.pool.Run(nb, l.bwdTask)
	l.run.x, l.run.dOut, l.run.dIn = nil, nil, nil
	l.run.off, l.run.offD = nil, nil
	l.run.a2, l.run.zb, l.run.partial = nil, nil, nil

	for bi := 0; bi < nb; bi++ {
		part := partial[bi*l.OutC*kk : (bi+1)*l.OutC*kk]
		for i, v := range part {
			l.gradW[i] += v
		}
	}
	l.arena.PutBuf(partial)
	l.arena.PutBuf(zb)
	l.arena.PutBuf(a2)
	l.arena.PutBufI32(offD)
	l.arena.PutBufI32(off)

	for oc := 0; oc < l.OutC; oc++ {
		var gb float32
		for _, v := range dOut.Data[oc*h*w : (oc+1)*h*w] {
			gb += v
		}
		l.gradB[oc] += gb
	}
	return dIn
}

// backwardBlock is the pooled per-block worker for Backward.
func (l *Conv2D) backwardBlock(bi int) {
	x, dOut, dIn, br := l.run.x, l.run.dOut, l.run.dIn, l.run.br
	h, w := x.H, x.W
	pad := l.K / 2
	kk, kk2 := len(l.run.off), len(l.run.offD)
	y0 := bi * br
	rows := min(br, h-y0)
	n := rows * w
	bh, bw := br+2*pad, w+2*pad

	// Weight-gradient partial for this block: part[oc][kidx] =
	// Σ_p dOut[oc][block p] * pack[kidx][p], over the explicit im2col rows.
	blk := l.arena.GetBuf(l.InC * bh * bw)
	borderBlock(x.Data, l.InC, h, w, pad, y0, rows, bh, blk)
	pack := l.arena.GetBuf(kk * n)
	im2col(blk, l.run.off, rows, w, bw, pack)
	l.arena.PutBuf(blk)
	part := l.run.partial[bi*l.OutC*kk : (bi+1)*l.OutC*kk]
	for oc := 0; oc < l.OutC; oc++ {
		gv := dOut.Data[oc*h*w+y0*w : oc*h*w+y0*w+n]
		for r := 0; r < kk; r += 4 {
			gemmDotRows(gv, pack, n, r, min(4, kk-r), part[oc*kk+r:])
		}
	}
	l.arena.PutBuf(pack)

	// Input-gradient block: conv of dOut's bordered block with flipped
	// transposed taps.
	blkD := l.arena.GetBuf(l.OutC * bh * bw)
	apack := l.arena.GetBuf(8 * kk2)
	borderBlock(dOut.Data, l.OutC, h, w, pad, y0, rows, bh, blkD)
	gemmConvBias(l.run.a2, l.run.zb, blkD, l.run.offD, l.InC, rows, w, bw, dIn.Data[y0*w:], h*w, apack, false)
	l.arena.PutBuf(apack)
	l.arena.PutBuf(blkD)
}

// ReLU is the rectified-linear activation of the training chain (inference
// fuses it into Conv2D.Infer and keeps no sign pattern). The hot path is
// fully in place: Forward zeroes negatives directly in its input tensor and
// records the sign pattern in a packed bitset; Backward masks the incoming
// gradient in place. Neither direction allocates in steady state.
type ReLU struct {
	bits []uint64
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// SetKernelContext implements KernelConfigurable. ReLU operates in place,
// so it only exists to satisfy the interface uniformly.
func (r *ReLU) SetKernelContext(a *Arena, p *Pool) {}

// CloneShared returns a fresh ReLU for a per-sample gradient context.
func (r *ReLU) CloneShared() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	nb := (len(x.Data) + 63) / 64
	if cap(r.bits) < nb {
		r.bits = make([]uint64, nb)
	}
	r.bits = r.bits[:nb]
	for i := range r.bits {
		r.bits[i] = 0
	}
	for i, v := range x.Data {
		if v > 0 {
			r.bits[i>>6] |= 1 << (i & 63)
		} else {
			x.Data[i] = 0
		}
	}
	return x
}

// Backward implements Layer.
func (r *ReLU) Backward(dOut *Tensor) *Tensor {
	for i := range dOut.Data {
		if r.bits[i>>6]&(1<<(i&63)) == 0 {
			dOut.Data[i] = 0
		}
	}
	return dOut
}

// PixelShuffle rearranges a (C*s², H, W) tensor into (C, H*s, W*s): the
// sub-pixel upsampling of ESPCN (Shi et al. 2016), which the paper's SR
// model family uses to upscale at the network's tail. Both directions move
// whole rows with stride-s slice writes instead of per-element At/Set
// index arithmetic.
type PixelShuffle struct {
	S     int
	arena *Arena
}

// Params implements Layer.
func (p *PixelShuffle) Params() []Param { return nil }

// SetKernelContext implements KernelConfigurable.
func (p *PixelShuffle) SetKernelContext(a *Arena, pl *Pool) { p.arena = a }

// CloneShared returns a PixelShuffle for a per-sample gradient context.
func (p *PixelShuffle) CloneShared() *PixelShuffle {
	return &PixelShuffle{S: p.S, arena: p.arena}
}

// Forward implements Layer.
func (p *PixelShuffle) Forward(x *Tensor) *Tensor {
	s := p.S
	if x.C%(s*s) != 0 {
		panic("nn: PixelShuffle channel count not divisible by s²")
	}
	outC := x.C / (s * s)
	out := p.arena.Get(outC, x.H*s, x.W*s)
	for oc := 0; oc < outC; oc++ {
		for sy := 0; sy < s; sy++ {
			for sx := 0; sx < s; sx++ {
				ic := oc*s*s + sy*s + sx
				for y := 0; y < x.H; y++ {
					src := x.Data[(ic*x.H+y)*x.W : (ic*x.H+y)*x.W+x.W]
					drow := out.Data[(oc*out.H+y*s+sy)*out.W+sx:]
					for i, v := range src {
						drow[i*s] = v
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *PixelShuffle) Backward(dOut *Tensor) *Tensor {
	s := p.S
	inC := dOut.C * s * s
	inH, inW := dOut.H/s, dOut.W/s
	dIn := p.arena.Get(inC, inH, inW)
	for oc := 0; oc < dOut.C; oc++ {
		for sy := 0; sy < s; sy++ {
			for sx := 0; sx < s; sx++ {
				ic := oc*s*s + sy*s + sx
				for y := 0; y < inH; y++ {
					src := dOut.Data[(oc*dOut.H+y*s+sy)*dOut.W+sx:]
					drow := dIn.Data[(ic*inH+y)*inW : (ic*inH+y)*inW+inW]
					for i := range drow {
						drow[i] = src[i*s]
					}
				}
			}
		}
	}
	return dIn
}

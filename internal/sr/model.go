// Package sr implements LiveNAS-Go's super-resolution stack: the patch-based
// residual SR network (the stand-in for NAS's "ultra-high" model, §7), the
// online trainer with recency-weighted minibatches and multi-GPU gradient
// aggregation (§6.2), the inference processor with intra-frame multi-GPU
// parallelism (§6.2), and the GPU device model that charges simulated time
// for training and inference (see DESIGN.md substitution #2).
package sr

import (
	"math/rand"
	"sync"

	"livenas/internal/frame"
	"livenas/internal/nn"
)

// DefaultChannels is the hidden width of the SR network. Small enough to
// train online on a CPU, large enough to learn content-specific detail.
const DefaultChannels = 8

// Model is a residual ESPCN-style super-resolution network for one integer
// scale factor: conv(1->C) ReLU conv(C->C) ReLU conv(C->s²) pixel-shuffle,
// added to a bilinear upsample of the input. The final conv is zero-
// initialised so an untrained model reproduces bilinear upsampling exactly —
// which is why online gain starts at 0 dB and grows with training.
//
// A shared Model is synchronized through its internal lock: SuperResolve,
// CopyWeightsFrom, Clone, and Save serialize against the trainer, which
// holds the write lock for each optimiser step. One Trainer plus any number
// of Processor.Sync / SuperResolve callers may therefore share a model (the
// contract the -race stress tests in race_test.go pin down). The lock is
// exclusive even for inference because each Conv2D, and the model's own
// convert and tail passes, keep the state of the call in flight in a run
// struct. Direct Params access remains trainer-only.
type Model struct {
	Scale    int
	Channels int
	layers   []nn.Layer    // the training chain; gradient contexts clone it
	convs    [3]*nn.Conv2D // head, mid, tail: the layers inference runs
	params   []nn.Param

	// arena recycles every tensor the forward/backward hot path produces;
	// pool is the kernel worker pool conv row blocks and per-sample
	// gradient contexts run on. Both are private to the model (the arena
	// is shared with the model's gradient contexts, which is safe — it is
	// internally locked).
	arena *nn.Arena
	pool  *nn.Pool

	// cvtTask/tailTask are the row-block workers of SuperResolve's u8->f32
	// convert and bilinear + sub-pixel residual tail, bound once so a frame
	// allocates no closure; run is the call in flight. Guarded by mu.
	cvtTask, tailTask func(int)
	run               struct {
		lr, out *frame.Frame
		in, res *nn.Tensor
	}

	// ctxs are cached per-sample gradient contexts (see gradCtx), grown on
	// demand to the trainer's shard size. Guarded by mu.
	ctxs []*gradCtx

	// mu guards the weights and the layers' forward/backward scratch
	// state. The trainer write-locks it for the duration of a step;
	// Processor.Sync read-locks the source model while copying weights
	// out at epoch boundaries.
	mu sync.RWMutex

	// calibMax holds running maxima of the two hidden ReLU activations,
	// the activation-scale calibration the int8 path quantizes with (see
	// quant.go). Fed by the trainer's gradient contexts (every training
	// sample doubles as a calibration probe) and by explicit Calibrate
	// calls; zero means "never calibrated". Guarded by mu.
	calibMax [2]float32
}

// NewModel creates a model for the given integer scale factor (>= 1).
func NewModel(scale, channels int, seed int64) *Model {
	if scale < 1 {
		panic("sr: scale must be >= 1")
	}
	if channels <= 0 {
		channels = DefaultChannels
	}
	rng := rand.New(rand.NewSource(seed))
	head := nn.NewConv2D(1, channels, 3, rng)
	mid := nn.NewConv2D(channels, channels, 3, rng)
	tail := nn.NewConv2D(channels, scale*scale, 3, rng)
	tail.ZeroInit()
	m := &Model{
		Scale:    scale,
		Channels: channels,
		layers: []nn.Layer{
			head, &nn.ReLU{},
			mid, &nn.ReLU{},
			tail, &nn.PixelShuffle{S: scale},
		},
		convs: [3]*nn.Conv2D{head, mid, tail},
		arena: nn.NewArena(),
		pool:  nn.SharedPool(),
	}
	m.cvtTask, m.tailTask = m.convertBlock, m.tailBlock
	nn.ConfigureKernels(m.layers, m.arena, m.pool)
	m.params = nn.CollectParams(m.layers)
	return m
}

// SetKernelPool routes this model's kernels (and future gradient contexts)
// through the given worker pool. Results are bit-identical for any pool
// size — the pool changes only which goroutine runs a block, never the
// partitioning — so this is purely a throughput knob.
func (m *Model) SetKernelPool(p *nn.Pool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool = p
	nn.ConfigureKernels(m.layers, m.arena, m.pool)
	m.ctxs = nil // rebuilt lazily with the new pool
}

// Params exposes the learnable parameters (stable order).
func (m *Model) Params() []nn.Param { return m.params }

// ArenaStats reports the model's tensor-arena free-list hits and misses
// (cumulative). In steady state hits dominate: the forward/backward chain
// recycles the same handful of shapes every call.
func (m *Model) ArenaStats() (hits, misses int64) { return m.arena.Stats() }

// ParamCount returns the total number of learnable scalars.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.params {
		n += len(p.W)
	}
	return n
}

// Clone returns a deep copy (weights and architecture, fresh grad buffers
// and a fresh arena) sharing the source model's kernel pool. The pool is
// snapshotted under the read lock — SetKernelPool may race with a clone
// otherwise — and released before the weight copy, which takes the locks in
// CopyWeightsFrom's documented order. Scale and Channels are immutable
// after construction and need no lock.
func (m *Model) Clone() *Model {
	pool := func() *nn.Pool {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return m.pool
	}()
	c := NewModel(m.Scale, m.Channels, 0)
	c.SetKernelPool(pool)
	c.CopyWeightsFrom(m)
	return c
}

// CopyWeightsFrom overwrites this model's weights with src's. The two models
// must share architecture. This is the "inference process is synchronized"
// step of §7 and the model-sync step of multi-GPU training. Weights must
// flow in a consistent direction between any two models (trainer master →
// inference replicas here); copying both ways concurrently would risk a
// lock-order deadlock.
func (m *Model) CopyWeightsFrom(src *Model) {
	if m == src {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	src.mu.RLock()
	defer src.mu.RUnlock()
	m.copyWeights(src)
}

// copyWeights copies src's weights without locking; callers either hold
// the necessary locks or exclusively own both models.
func (m *Model) copyWeights(src *Model) {
	if len(m.params) != len(src.params) {
		panic("sr: CopyWeightsFrom architecture mismatch")
	}
	for i := range m.params {
		copy(m.params[i].W, src.params[i].W)
	}
}

// zeroGrads clears all gradient accumulators.
func (m *Model) zeroGrads() { nn.ZeroGrads(m.layers) }

// ToTensor converts a luma frame to a normalised (1, H, W) tensor in [0,1].
func ToTensor(f *frame.Frame) *nn.Tensor {
	t := nn.NewTensor(1, f.H, f.W)
	for i, v := range f.Pix {
		t.Data[i] = float32(v) / 255
	}
	return t
}

// FromTensor converts a (1, H, W) tensor in [0,1] back to a luma frame.
func FromTensor(t *nn.Tensor) *frame.Frame {
	f := frame.New(t.W, t.H)
	for i, v := range t.Data {
		x := v * 255
		switch {
		case x <= 0:
			f.Pix[i] = 0
		case x >= 255:
			f.Pix[i] = 255
		default:
			f.Pix[i] = uint8(x + 0.5)
		}
	}
	return f
}

// inferBlockRows is the LR row-block height of the per-pixel passes around
// the convs. Like convBlockRows it is fixed by shape, never by pool size.
const inferBlockRows = 16

// SuperResolve upscales lr by the model's scale factor: bilinear skip plus
// the learned residual. Every stage runs on the kernel pool in shape-derived
// row blocks, so the output is byte-identical at any pool size.
func (m *Model) SuperResolve(lr *frame.Frame) *frame.Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := frame.New(lr.W*m.Scale, lr.H*m.Scale)
	res := m.infer(lr, false)
	m.run.lr, m.run.res, m.run.out = lr, res, out
	m.pool.Run((lr.H+inferBlockRows-1)/inferBlockRows, m.tailTask)
	m.run.lr, m.run.res, m.run.out = nil, nil, nil
	m.arena.Put(res)
	return out
}

// infer runs the residual branch over lr and returns the (s², H, W)
// sub-pixel residual, which the caller hands back to the arena. Each input
// tensor is returned as soon as the next exists. With calib set the hidden
// activation maxima are folded into calibMax. Caller holds m.mu.
func (m *Model) infer(lr *frame.Frame, calib bool) *nn.Tensor {
	in := m.arena.Get(1, lr.H, lr.W)
	m.run.lr, m.run.in = lr, in
	m.pool.Run((lr.H+inferBlockRows-1)/inferBlockRows, m.cvtTask)
	m.run.lr, m.run.in = nil, nil
	h := in
	for i, c := range m.convs {
		out := c.Infer(h, i < 2)
		m.arena.Put(h)
		h = out
		if calib && i < 2 {
			m.calibMax[i] = maxSlice(h.Data, m.calibMax[i])
		}
	}
	return h
}

// convertBlock is the pooled u8 -> [0,1] f32 worker of infer.
func (m *Model) convertBlock(bi int) {
	lr, in := m.run.lr, m.run.in
	lo := bi * inferBlockRows * lr.W
	hi := min(lo+inferBlockRows*lr.W, len(lr.Pix))
	for i, v := range lr.Pix[lo:hi] {
		in.Data[lo+i] = float32(v) / 255
	}
}

// tailBlock is the pooled tail worker of SuperResolve: one block of LR rows
// becomes its rows of the output, bilinear skip first, residual on top.
func (m *Model) tailBlock(bi int) {
	lr, out, s := m.run.lr, m.run.out, m.Scale
	y0 := bi * inferBlockRows
	y1 := min(y0+inferBlockRows, lr.H)
	lr.ResizeBilinearRows(out, y0*s, y1*s)
	addResidual(m.run.res, s, 0, 0, out, 0, y0, lr.W, y1)
}

// addResidual adds the sub-pixel residual res — (s², ch, cw) over the LR
// cell whose top-left LR pixel is (left, top) — to the region of out that
// LR pixels [x0,x1)×[y0,y1) scale to, which must hold the bilinear skip.
// It reads the s² channels where the conv left them (the pixel shuffle is
// index arithmetic, no plane is materialised); channel sy*s+sx supplies
// output pixel (y*s+sy, x*s+sx). That arithmetic is one pooled table per
// call: output column x*s+sx of any output row reads its residual at
// sx*ch*cw + x past the row's first sample of channel sy*s, and addRow
// walks an output row through it.
func addResidual(res *nn.Tensor, s, left, top int, out *frame.Frame, x0, y0, x1, y1 int) {
	n := (x1 - x0) * s
	ip := residualIdx.Get().(*[]int32)
	if cap(*ip) < n {
		*ip = make([]int32, n)
	}
	idx := (*ip)[:n]
	plane := res.H * res.W
	for x := 0; x < x1-x0; x++ {
		for sx := 0; sx < s; sx++ {
			idx[x*s+sx] = int32(sx*plane + x)
		}
	}
	for y := y0; y < y1; y++ {
		for sy := 0; sy < s; sy++ {
			at := (sy*s*res.H+y-top)*res.W - left + x0
			o := (y*s+sy)*out.W + x0*s
			addRow(out.Pix[o:o+n], res.Data[at:], idx)
		}
	}
	residualIdx.Put(ip)
}

// residualIdx recycles addResidual's per-call column table.
var residualIdx = sync.Pool{New: func() any { return new([]int32) }}

// addRow adds one output row of the sub-pixel residual to the skip already
// in pix: the Go loop below, or the AVX2 kernel the amd64 init installs
// once when cpu.AVX2 (residual_amd64.go). Both perform the same float32
// operations per pixel, so the choice cannot change a byte.
var addRow = addRowGo

// addRowGo is the seed's residual store over one output row: pixel j gets
// v = skip + r*255 with r = res[idx[j]]; anything <= 0 stores 0, anything
// >= 255 stores 255, the rest rounds half up. idx must be at least as long
// as pix, and every entry an index into res.
func addRowGo(pix []uint8, res []float32, idx []int32) {
	idx = idx[:len(pix)]
	for j, o := range pix {
		v := float32(o) + res[idx[j]]*255
		switch {
		case v <= 0:
			pix[j] = 0
		case v >= 255:
			pix[j] = 255
		default:
			pix[j] = uint8(v + 0.5)
		}
	}
}

// Calibrate runs f32 forward passes over the given frames, folding the
// hidden ReLU activation maxima into the model's calibration statistics.
// The trainer feeds these statistics continuously from its minibatches;
// Calibrate exists for models that never train (generic/pretrained
// baselines) and for tests — one representative frame is enough to seed
// usable int8 activation scales.
func (m *Model) Calibrate(frames []*frame.Frame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range frames {
		m.arena.Put(m.infer(f, true))
	}
}

// calibStats returns the calibration maxima. Zero values mean the model has
// never been calibrated (quantization then falls back to the input scale).
func (m *Model) calibStats() [2]float32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.calibMax
}

// foldCalib merges activation maxima into the calibration statistics.
// Caller must hold m.mu (the trainer holds the master write lock for the
// whole step). Max is commutative and associative, so the fold order cannot
// affect the result — calibration stays deterministic for any pool size.
func (m *Model) foldCalib(am [2]float32) {
	m.calibMax[0] = max(m.calibMax[0], am[0])
	m.calibMax[1] = max(m.calibMax[1], am[1])
}

// maxSlice returns the max of seed and all elements of s.
func maxSlice(s []float32, seed float32) float32 {
	for _, v := range s {
		if v > seed {
			seed = v
		}
	}
	return seed
}

// gradCtx is a per-sample gradient context: a layer chain sharing the
// parent model's weight slices (live, not copied) but owning private
// gradient accumulators and activation caches. The trainer runs one
// context per minibatch sample so sample gradients compute concurrently on
// the kernel pool, then folds their private gradients into the model in
// ascending sample order — the same per-element accumulation order as a
// sequential loop, so the result is deterministic for any pool size.
type gradCtx struct {
	arena  *nn.Arena
	layers []nn.Layer
	params []nn.Param
	live   []*nn.Tensor

	// actMax records the hidden ReLU activation maxima of the most recent
	// sampleGrad call — free calibration probes for the int8 path, folded
	// into Model.calibMax by the trainer after each shard (max fold, so
	// deterministic regardless of execution order).
	actMax [2]float32
}

// gradContexts returns at least n cached gradient contexts, creating any
// missing ones. Caller must hold m.mu.
func (m *Model) gradContexts(n int) []*gradCtx {
	for len(m.ctxs) < n {
		g := &gradCtx{arena: m.arena}
		for _, l := range m.layers {
			switch t := l.(type) {
			case *nn.Conv2D:
				g.layers = append(g.layers, t.CloneShared())
			case *nn.ReLU:
				g.layers = append(g.layers, t.CloneShared())
			case *nn.PixelShuffle:
				g.layers = append(g.layers, t.CloneShared())
			default:
				panic("sr: layer type not supported by gradient contexts")
			}
		}
		g.params = nn.CollectParams(g.layers)
		m.ctxs = append(m.ctxs, g)
	}
	return m.ctxs[:n]
}

// sampleGrad runs one forward/backward pass for sample s, leaving the
// sample's gradient in the context's private accumulators, and returns the
// sample's loss.
func (g *gradCtx) sampleGrad(s Sample) float64 {
	g.actMax = [2]float32{}
	h := s.LR
	for i, l := range g.layers {
		out := l.Forward(h)
		if out != h {
			g.live = append(g.live, out)
		}
		h = out
		if i == 1 || i == 3 {
			g.actMax[i/2] = maxSlice(h.Data, 0)
		}
	}
	grad := g.arena.Get(h.C, h.H, h.W)
	loss := nn.MSELossGradInto(h, s.Res, grad)
	for i := len(g.layers) - 1; i >= 0; i-- {
		ng := g.layers[i].Backward(grad)
		if ng != grad {
			g.arena.Put(grad)
		}
		grad = ng
	}
	g.arena.Put(grad)
	for i, t := range g.live {
		g.arena.Put(t)
		g.live[i] = nil
	}
	g.live = g.live[:0]
	return loss
}

// zeroGrads clears the context's private gradient accumulators.
func (g *gradCtx) zeroGrads() { nn.ZeroGrads(g.layers) }

package sr

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"livenas/internal/frame"
	"livenas/internal/nn"
)

// superResolveRef is the SuperResolve the inference forward replaced, kept
// as its oracle: the training chain's Layer.Forward calls (ReLU with its
// bitset, a materialised PixelShuffle plane), a whole-frame bilinear skip
// and one serial residual add. It takes the model's lock like the call it
// mirrors, so it can run beside a trainer.
func superResolveRef(m *Model, lr *frame.Frame) *frame.Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	up := lr.ResizeBilinear(lr.W*m.Scale, lr.H*m.Scale)
	h := ToTensor(lr)
	for _, l := range m.layers {
		h = l.Forward(h)
	}
	out := frame.New(up.W, up.H)
	for i := range out.Pix {
		v := float32(up.Pix[i]) + float32(h.Data[i]*255)
		switch {
		case v <= 0:
			out.Pix[i] = 0
		case v >= 255:
			out.Pix[i] = 255
		default:
			out.Pix[i] = uint8(v + 0.5)
		}
	}
	return out
}

// addResidualRef is the residual add the row kernels replaced, kept as
// their oracle: the seed's per-pixel loop over the s² channels.
func addResidualRef(res *nn.Tensor, s, left, top int, out *frame.Frame, x0, y0, x1, y1 int) {
	for y := y0; y < y1; y++ {
		for sy := 0; sy < s; sy++ {
			orow := out.Pix[(y*s+sy)*out.W:]
			for sx := 0; sx < s; sx++ {
				at := ((sy*s+sx)*res.H+y-top)*res.W - left
				for x, r := range res.Data[at+x0 : at+x1] {
					o := &orow[(x0+x)*s+sx]
					v := float32(*o) + float32(r*255)
					switch {
					case v <= 0:
						*o = 0
					case v >= 255:
						*o = 255
					default:
						*o = uint8(v + 0.5)
					}
				}
			}
		}
	}
}

// TestAddResidualMatchesRef pins addResidual to the seed loop under the Go
// row kernel and (where the host has it) the AVX2 one: scales 1-4, LR
// widths 1-40 and 384 (every remainder of the 8-lane step), the whole
// frame as SuperResolve's tail adds it and a cell sub-range with a halo,
// as EnhanceRegion adds it (x0, left > 0). Residuals mix NaN, ±Inf, ±0,
// ±1e30 and values whose sum with the skip lands exactly on 0, 255 and
// the .5 rounding edges (r = ±0.5 adds ±127.5 exactly) with random ones.
func TestAddResidualMatchesRef(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	special := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)), 1e30, -1e30,
		1, -1, 0.5, -0.5, 1.5, -1.5, 0.5 / 255, -0.5 / 255, 1.0 / 512, -1.0 / 512}
	widths := []int{384}
	for w := 1; w <= 40; w++ {
		widths = append(widths, w)
	}
	forEachResidualKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for s := 1; s <= 4; s++ {
			for _, w := range widths {
				h := 1 + rng.Intn(3)
				skip := randFrame(w*s, h*s, rng)
				for i := range skip.Pix {
					switch rng.Intn(8) {
					case 0:
						skip.Pix[i] = 0
					case 1:
						skip.Pix[i] = 255
					}
				}
				x0, x1 := 0, w
				y0, y1 := 0, h
				if w > 1 && rng.Intn(2) == 0 { // a cell sub-range, as EnhanceRegion
					x0 = 1 + rng.Intn(w-1)
					x1 = x0 + 1 + rng.Intn(w-x0)
					y0 = rng.Intn(h)
					y1 = y0 + 1 + rng.Intn(h-y0)
				}
				halo := rng.Intn(4)
				left, top := max(0, x0-halo), max(0, y0-halo)
				right, bot := min(w, x1+halo), min(h, y1+halo)
				res := nn.NewTensor(s*s, bot-top, right-left)
				for i := range res.Data {
					if rng.Intn(3) == 0 {
						res.Data[i] = special[rng.Intn(len(special))]
					} else {
						res.Data[i] = float32(rng.NormFloat64() * 0.3)
					}
				}
				want, got := skip.Clone(), skip.Clone()
				addResidualRef(res, s, left, top, want, x0, y0, x1, y1)
				addResidual(res, s, left, top, got, x0, y0, x1, y1)
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("x%d %dx%d cell [%d,%d)x[%d,%d) of res at (%d,%d): residual add differs from the oracle",
						s, w, h, x0, x1, y0, y1, left, top)
				}
			}
		}
	})
}

// randomModel returns a model whose every weight, the zero-initialised tail
// included, is random: hidden activations of both signs and a residual large
// enough to hit both clamps.
func randomModel(scale, channels int, seed int64) *Model {
	m := NewModel(scale, channels, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.params[len(m.params)-2:] {
		for i := range p.W {
			p.W[i] = float32(rng.NormFloat64() * 0.1)
		}
	}
	return m
}

// TestSuperResolveMatchesRef: the inference forward equals the oracle byte
// for byte, at every scale, from one pixel to the serve_hd frame, on the
// inline pool and on pools with fewer and more workers than row blocks.
func TestSuperResolveMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pools := []*nn.Pool{nn.NewPool(1), nn.NewPool(2), nn.NewPool(4)}
	for _, p := range pools {
		defer p.Close()
	}
	for scale := 1; scale <= 4; scale++ {
		m := randomModel(scale, 0, int64(scale))
		for _, sz := range [][2]int{{1, 1}, {5, 3}, {37, 19}, {100, 97}, {384, 216}} {
			lr := randFrame(sz[0], sz[1], rng)
			want := superResolveRef(m, lr)
			if bytes.Equal(want.Pix, lr.ResizeBilinear(want.W, want.H).Pix) && len(lr.Pix) > 1 {
				t.Fatalf("x%d %dx%d: the oracle's residual is zero, the test compares nothing", scale, sz[0], sz[1])
			}
			for _, p := range pools {
				m.SetKernelPool(p)
				if got := m.SuperResolve(lr); !bytes.Equal(got.Pix, want.Pix) || got.W != want.W {
					t.Fatalf("x%d %dx%d pool %d: SuperResolve differs from the oracle", scale, sz[0], sz[1], p.Size())
				}
			}
		}
	}
}

// TestCalibrateMatchesRefActivations: Calibrate reads the activation maxima
// off the fused-ReLU conv outputs; they must be the maxima the training
// chain's ReLU layers produce.
func TestCalibrateMatchesRefActivations(t *testing.T) {
	m := randomModel(2, 0, 3)
	lr := randFrame(100, 97, rand.New(rand.NewSource(4)))
	m.Calibrate([]*frame.Frame{lr})
	var want [2]float32
	h := ToTensor(lr)
	for i, l := range m.layers {
		h = l.Forward(h)
		if i == 1 || i == 3 {
			want[i/2] = maxSlice(h.Data, 0)
		}
	}
	if got := m.calibStats(); got != want || want[0] <= 0 || want[1] <= 0 {
		t.Fatalf("Calibrate maxima %v, training chain %v", got, want)
	}
}

// TestInferenceReturnsEveryTensor: on the inline pool the arena traffic of a
// call is deterministic, so after one warm-up call neither SuperResolve nor
// Calibrate may miss again — everything the forward takes goes back.
func TestInferenceReturnsEveryTensor(t *testing.T) {
	m := randomModel(2, 0, 5)
	m.SetKernelPool(nn.NewPool(1))
	lr := randFrame(100, 97, rand.New(rand.NewSource(6)))
	m.SuperResolve(lr)
	_, warm := m.ArenaStats()
	for i := 0; i < 5; i++ {
		m.SuperResolve(lr)
		m.Calibrate([]*frame.Frame{lr})
	}
	if _, misses := m.ArenaStats(); misses != warm {
		t.Fatalf("arena misses grew from %d to %d over warm calls", warm, misses)
	}
}

// TestTrainerReturnsEveryTensor is the training-side mirror: after one
// warm-up epoch the forward/backward chain and the optimiser step take
// nothing from the arena that the previous epoch did not put back — which
// catches a Backward that parks a scratch buffer and never returns it.
func TestTrainerReturnsEveryTensor(t *testing.T) {
	m := randomModel(2, 0, 9)
	m.SetKernelPool(nn.NewPool(1))
	tr := NewTrainer(m, TrainConfig{ItersPerEpoch: 4, Batch: 4}, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		tr.AddSample(randFrame(24, 24, rng), randFrame(48, 48, rng))
	}
	tr.Epoch()
	_, warm := m.ArenaStats()
	for i := 0; i < 3; i++ {
		tr.Epoch()
	}
	if _, misses := m.ArenaStats(); misses != warm {
		t.Fatalf("arena misses grew from %d to %d over warm epochs", warm, misses)
	}
}

// TestSuperResolveAllocCeilings pins what a served frame allocates on a
// multi-worker pool in steady state: the output frame plus one pool job per
// stage for f32 (the seed's 7, with its separate skip frame's bytes gone),
// the output frame, the job and its closure for int8. Steady state is the
// least of three rounds: how many scratch buffers the arena and the resize
// pool end up holding depends on how many blocks the scheduler happened to
// have in flight at once, so a round may still be paying for a new maximum.
func TestSuperResolveAllocCeilings(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	pool := nn.NewPool(2)
	defer pool.Close()
	m := randomModel(2, 0, 7)
	m.SetKernelPool(pool)
	q := NewQuantModel(m)
	lr := randFrame(384, 216, rand.New(rand.NewSource(8)))
	for _, c := range []struct {
		name      string
		run       func()
		maxAllocs float64
	}{
		{"f32", func() { m.SuperResolve(lr) }, 7},
		{"int8", func() { q.SuperResolve(lr) }, 4},
	} {
		const runs, maxBytes = 10, 400 << 10
		allocs, size := math.Inf(1), uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			allocs = min(allocs, testing.AllocsPerRun(runs, c.run))
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < runs; i++ {
				c.run()
			}
			runtime.ReadMemStats(&b)
			size = min(size, (b.TotalAlloc-a.TotalAlloc)/runs)
		}
		if allocs > c.maxAllocs || size > maxBytes {
			t.Errorf("%s SuperResolve: %v allocs and %d bytes per frame, want <= %v and <= %d",
				c.name, allocs, size, c.maxAllocs, maxBytes)
		}
	}
}

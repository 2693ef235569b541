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
		v := float32(up.Pix[i]) + h.Data[i]*255
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

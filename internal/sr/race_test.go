package sr

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"livenas/internal/frame"
	"livenas/internal/nn"
	"livenas/internal/telemetry"
)

// These stress tests pin down the synchronization contract between online
// training and inference on a shared model (DESIGN.md "Correctness
// tooling"): one Trainer goroutine may run epochs while other goroutines
// concurrently Sync processor replicas from the model, run processor
// inference, super-resolve on the model directly, and snapshot it. They
// are meaningful under `go test -race ./internal/sr` (part of
// scripts/ci.sh full); without -race they still assert basic output sanity.

func fillTestFrame(f *frame.Frame, seed int) {
	for i := range f.Pix {
		f.Pix[i] = uint8(i*31 + seed)
	}
}

func newStressTrainer(t *testing.T, model *Model) *Trainer {
	t.Helper()
	cfg := DefaultTrainConfig()
	cfg.ItersPerEpoch = 4
	cfg.Batch = 4
	cfg.GPUs = 2
	tr := NewTrainer(model, cfg, 3)
	for i := 0; i < 12; i++ {
		lr := frame.New(8, 8)
		hr := frame.New(16, 16)
		fillTestFrame(lr, i)
		fillTestFrame(hr, i+1)
		tr.AddSample(lr, hr)
	}
	return tr
}

func TestConcurrentTrainInferSync(t *testing.T) {
	model := NewModel(2, 4, 1)
	trainer := newStressTrainer(t, model)
	proc := NewProcessor(model, 2, RTX2080Ti())

	in := frame.New(24, 24)
	fillTestFrame(in, 7)

	const iters = 25
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // online training epochs (single trainer goroutine)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			trainer.Epoch()
		}
	}()
	go func() { // epoch-boundary weight sync into the processor replicas
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.Sync(model)
		}
	}()
	go func() { // strip-parallel inference on the processor
		defer wg.Done()
		for i := 0; i < iters; i++ {
			out, _ := proc.Process(in)
			if out.W != in.W*2 || out.H != in.H*2 {
				t.Errorf("Process returned %dx%d, want %dx%d", out.W, out.H, in.W*2, in.H*2)
				return
			}
		}
	}()
	go func() { // direct inference on the shared training model
		defer wg.Done()
		for i := 0; i < iters; i++ {
			out := model.SuperResolve(in)
			if out.W != in.W*2 || out.H != in.H*2 {
				t.Errorf("SuperResolve returned %dx%d, want %dx%d", out.W, out.H, in.W*2, in.H*2)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentKernelPoolStress drives the shared kernel worker pool from
// every direction at once: a trainer whose shards fan per-sample gradient
// contexts onto an explicit multi-worker pool, strip-split processor
// inference on replicas sharing that pool, epoch-boundary Sync, and direct
// SuperResolve — all against frames big enough that conv forward/backward
// split into several row blocks. Under -race this pins down that pool
// tasks, arena recycling, and the weight-sharing gradient contexts are
// data-race-free while weights churn.
func TestConcurrentKernelPoolStress(t *testing.T) {
	model := NewModel(2, 4, 1)
	pool := nn.NewPool(4)
	defer pool.Close()
	model.SetKernelPool(pool)
	trainer := newStressTrainer(t, model)
	for i := 0; i < 6; i++ { // larger samples: multi-block backward
		lr := frame.New(48, 40)
		hr := frame.New(96, 80)
		fillTestFrame(lr, i)
		fillTestFrame(hr, i+3)
		trainer.AddSample(lr, hr)
	}
	proc := NewProcessor(model, 2, RTX2080Ti())

	in := frame.New(96, 64)
	fillTestFrame(in, 11)

	const iters = 12
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			trainer.Epoch()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.Sync(model)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			out, _ := proc.Process(in)
			if out.W != in.W*2 || out.H != in.H*2 {
				t.Errorf("Process returned %dx%d, want %dx%d", out.W, out.H, in.W*2, in.H*2)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			out := model.SuperResolve(in)
			if out.W != in.W*2 || out.H != in.H*2 {
				t.Errorf("SuperResolve returned %dx%d, want %dx%d", out.W, out.H, in.W*2, in.H*2)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentQuantStress exercises the int8 fast path under churn: the
// trainer updates weights (and calibration statistics), Sync rebuilds the
// quantized snapshot, strip-parallel quantized inference and the anytime
// scheduler run against it, and the quality gate samples patches — all
// concurrently on a shared multi-worker kernel pool. Under -race this pins
// down that quantized snapshots, the quant arena, and the gate state are
// data-race-free.
func TestConcurrentQuantStress(t *testing.T) {
	model := NewModel(2, 4, 1)
	pool := nn.NewPool(4)
	defer pool.Close()
	model.SetKernelPool(pool)
	trainer := newStressTrainer(t, model)
	proc := NewProcessor(model, 2, RTX2080Ti())
	proc.EnableQuant(model, 0.5)

	in := frame.New(96, 64)
	fillTestFrame(in, 11)
	hr := frame.New(192, 128)
	fillTestFrame(hr, 13)

	const iters = 12
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			trainer.Epoch()
		}
	}()
	go func() { // epoch-boundary sync rebuilds the int8 snapshot
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.Sync(model)
		}
	}()
	go func() { // quantized whole-frame + anytime patch-scheduled inference
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 1 {
				proc.SetAnytimeBudget(mixedBudget(RTX2080Ti(), in))
			} else {
				proc.SetAnytimeBudget(0)
			}
			out, _ := proc.Process(in)
			if out.W != in.W*2 || out.H != in.H*2 {
				t.Errorf("Process returned %dx%d, want %dx%d", out.W, out.H, in.W*2, in.H*2)
				return
			}
		}
	}()
	go func() { // online quality gate sampling
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.ObserveGatePatch(in, hr)
		}
	}()
	wg.Wait()
}

func TestConcurrentSnapshotWhileTraining(t *testing.T) {
	model := NewModel(2, 4, 1)
	trainer := newStressTrainer(t, model)
	pools := []*nn.Pool{nn.NewPool(2), nn.NewPool(3)}
	for _, p := range pools {
		defer p.Close()
	}

	const iters = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			trainer.Epoch()
		}
	}()
	go func() { // external replica pulls, as a persistent-model store would
		defer wg.Done()
		for i := 0; i < iters; i++ {
			model.Clone() // kernel-pool snapshot under the read lock, then CopyWeightsFrom
		}
	}()
	go func() { // the kernel pool is re-routed while clones are being taken
		defer wg.Done()
		for i := 0; i < iters; i++ {
			model.SetKernelPool(pools[i%len(pools)])
		}
	}()
	wg.Wait()
}

// TestConcurrentSetTelemetryWhileServing attaches telemetry to a processor
// that is already serving frames: SetTelemetry installs the metric handles
// under p.mu, the same lock Process and Sync read them under.
func TestConcurrentSetTelemetryWhileServing(t *testing.T) {
	model := NewModel(2, 4, 1)
	proc := NewProcessor(model, 2, RTX2080Ti())
	in := frame.New(24, 24)
	fillTestFrame(in, 7)

	const iters = 25
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.Process(in)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.Sync(model)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			proc.SetTelemetry(telemetry.New())
		}
	}()
	wg.Wait()
}

// TestDevicePoolAccessorsWhileAcquiring reads the pool's accounting while
// streams take and return slots, as the fleet's utilization report does
// against its admission path; every read must see a conserved count.
func TestDevicePoolAccessorsWhileAcquiring(t *testing.T) {
	pool := NewDevicePool(RTX2080Ti(), 4)

	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if n := 1 + (i+w)%2; pool.Acquire(n) {
					pool.Release(n)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			total, used := pool.Total(), pool.InUse()
			if used < 0 || used > total || pool.Free() < 0 || pool.Peak() > total {
				t.Errorf("inconsistent pool accounting: %d of %d in use", used, total)
				return
			}
		}
	}()
	wg.Wait()
	if pool.InUse() != 0 {
		t.Errorf("%d slots still held after every Acquire was released", pool.InUse())
	}
}

// TestConcurrentInferenceMatchesRefWhileTraining shares one model between a
// stepping Trainer, four SuperResolve goroutines and a goroutine that
// calibrates it and copies its weights out, all on a multi-worker pool. A
// frame whose call saw no weight change — the model's weights are equal
// before and after it — must equal the oracle on a clone taken at that
// point; the trainer pauses after every epoch until the frames have ticked
// it on, so some frames of every epoch qualify. Afterwards the arena must
// have stopped missing: every tensor the inference forward takes goes back.
func TestConcurrentInferenceMatchesRefWhileTraining(t *testing.T) {
	model := NewModel(2, 4, 1)
	pool := nn.NewPool(4)
	defer pool.Close()
	model.SetKernelPool(pool)
	trainer := newStressTrainer(t, model)
	in := frame.New(96, 64) // four conv row blocks, four tail blocks
	fillTestFrame(in, 5)

	const epochs, inferers = 6, 4
	tick := make(chan struct{})
	stop := make(chan struct{})
	var verified, differing atomic.Int64
	var wg sync.WaitGroup
	wg.Add(inferers + 1)
	for g := 0; g < inferers; g++ {
		go func() {
			defer wg.Done()
			for {
				before := model.Clone()
				got := model.SuperResolve(in)
				after := model.Clone()
				if sameWeights(before, after) {
					verified.Add(1)
					if !bytes.Equal(got.Pix, superResolveRef(before, in).Pix) {
						differing.Add(1)
					}
				}
				select {
				case tick <- struct{}{}:
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	go func() { // Calibrate writes calibMax only; the copy reads the weights
		defer wg.Done()
		replica := model.Clone()
		for {
			select {
			case <-stop:
				return
			default:
			}
			model.Calibrate([]*frame.Frame{in})
			replica.CopyWeightsFrom(model)
		}
	}()
	for e := 0; e < epochs; e++ {
		trainer.Epoch()
		// 2*inferers frames finishing in the pause: one goroutine ran two,
		// and its second began and ended with the trainer idle.
		for i := 0; i < 2*inferers; i++ {
			<-tick
		}
	}
	close(stop)
	wg.Wait()
	if n, bad := verified.Load(), differing.Load(); n < epochs || bad > 0 {
		t.Fatalf("%d frames checked over %d epochs (want at least one each), %d differ from the oracle on their weights", n, epochs, bad)
	}

	// A forward that kept one tensor would miss once per call. What a busy
	// pool adds is bounded by workers x buffer sizes, and the run above has
	// long since paid it.
	const calls = 100
	_, warm := model.ArenaStats()
	for i := 0; i < calls/2; i++ {
		model.SuperResolve(in)
		model.Calibrate([]*frame.Frame{in})
	}
	if _, misses := model.ArenaStats(); misses-warm >= calls/2 {
		t.Fatalf("arena misses grew by %d over %d warm inference calls", misses-warm, calls)
	}
}

// sameWeights reports whether two models the caller owns hold equal weights.
func sameWeights(a, b *Model) bool {
	for i, p := range a.params {
		if !slices.Equal(p.W, b.params[i].W) {
			return false
		}
	}
	return true
}

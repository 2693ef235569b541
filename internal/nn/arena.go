package nn

import (
	"sync"
	"sync/atomic"
)

// Arena is a free-list allocator for tensors and raw float32 scratch
// buffers. The SR hot path — model forward, trainer step, strip-split
// inference — allocates the same handful of shapes every frame and every
// minibatch; recycling them through an arena makes steady-state epochs and
// frames allocate (almost) nothing, which is where most of the seed
// implementation's wall-clock went.
//
// Ownership rules (see DESIGN.md "Kernel engine"):
//
//   - A tensor obtained from Get/GetBuf is owned by the caller until it is
//     handed back with Put/PutBuf. Handing it back transfers ownership to
//     the arena; the caller must not retain a reference past that point.
//   - Arena memory is NOT zeroed on Get. Every kernel in this package
//     writes its full output (GEMM conv, pixel-shuffle, MSE gradient), so
//     callers that need cleared memory must call Zero explicitly.
//   - Anything that must outlive a training step or an inference call
//     (weights, samples, returned frames) is allocated normally, never
//     from an arena.
//
// An Arena is safe for concurrent use; the per-model arenas are shared by
// that model's pool tasks and gradient contexts.
type Arena struct {
	mu      sync.Mutex
	tensors map[int][]*Tensor
	bufs    map[int][][]float32
	bufs16  map[int][][]int16
	bufs32  map[int][][]int32

	// hits/misses account free-list reuse vs fresh allocation across Get and
	// GetBuf. Plain atomics rather than telemetry handles: the arena sits on
	// the innermost hot path and must not depend on anything. sr's
	// ArenaStats reads them.
	hits   atomic.Int64
	misses atomic.Int64
}

// Stats reports cumulative free-list hits (recycled tensors/buffers) and
// misses (fresh allocations) across Get and GetBuf.
func (a *Arena) Stats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.hits.Load(), a.misses.Load()
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		tensors: map[int][]*Tensor{},
		bufs:    map[int][][]float32{},
		bufs16:  map[int][][]int16{},
		bufs32:  map[int][][]int32{},
	}
}

// Get returns a (c, h, w) tensor, reusing a retired one of the same element
// count when available. Contents are unspecified; see the zeroing rule above.
func (a *Arena) Get(c, h, w int) *Tensor {
	if a == nil {
		return NewTensor(c, h, w)
	}
	if t := a.popTensor(c * h * w); t != nil {
		t.C, t.H, t.W = c, h, w
		a.hits.Add(1)
		return t
	}
	a.misses.Add(1)
	return NewTensor(c, h, w)
}

func (a *Arena) popTensor(n int) *Tensor {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.tensors[n]
	if len(free) == 0 {
		return nil
	}
	t := free[len(free)-1]
	a.tensors[n] = free[:len(free)-1]
	return t
}

// Put returns a tensor to the arena. nil tensors and nil arenas are no-ops,
// so release paths need no conditionals.
func (a *Arena) Put(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(t.Data)
	a.tensors[n] = append(a.tensors[n], t)
}

// GetBuf returns a float32 scratch buffer of exactly n elements with
// unspecified contents.
func (a *Arena) GetBuf(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	if b := a.popBuf(n); b != nil {
		a.hits.Add(1)
		return b
	}
	a.misses.Add(1)
	return make([]float32, n)
}

func (a *Arena) popBuf(n int) []float32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.bufs[n]
	if len(free) == 0 {
		return nil
	}
	b := free[len(free)-1]
	a.bufs[n] = free[:len(free)-1]
	return b
}

// PutBuf returns a scratch buffer to the arena.
func (a *Arena) PutBuf(b []float32) {
	if a == nil || b == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bufs[len(b)] = append(a.bufs[len(b)], b)
}

// GetBufI16 returns an int16 scratch buffer of exactly n elements with
// unspecified contents. The int8 inference path stores quantized
// activations and bordered blocks in int8-in-int16 containers (see quant.go),
// so these share the arena's ownership rules with the float32 buffers.
func (a *Arena) GetBufI16(n int) []int16 {
	if a == nil {
		return make([]int16, n)
	}
	if b := a.popBufI16(n); b != nil {
		a.hits.Add(1)
		return b
	}
	a.misses.Add(1)
	return make([]int16, n)
}

func (a *Arena) popBufI16(n int) []int16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.bufs16[n]
	if len(free) == 0 {
		return nil
	}
	b := free[len(free)-1]
	a.bufs16[n] = free[:len(free)-1]
	return b
}

// PutBufI16 returns an int16 scratch buffer to the arena.
func (a *Arena) PutBufI16(b []int16) {
	if a == nil || b == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bufs16[len(b)] = append(a.bufs16[len(b)], b)
}

// GetBufI32 returns an int32 scratch buffer of exactly n elements with
// unspecified contents (GEMM accumulators for the int8 path, and the tap
// offset tables of both engines).
func (a *Arena) GetBufI32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if b := a.popBufI32(n); b != nil {
		a.hits.Add(1)
		return b
	}
	a.misses.Add(1)
	return make([]int32, n)
}

func (a *Arena) popBufI32(n int) []int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.bufs32[n]
	if len(free) == 0 {
		return nil
	}
	b := free[len(free)-1]
	a.bufs32[n] = free[:len(free)-1]
	return b
}

// PutBufI32 returns an int32 scratch buffer to the arena.
func (a *Arena) PutBufI32(b []int32) {
	if a == nil || b == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bufs32[len(b)] = append(a.bufs32[len(b)], b)
}

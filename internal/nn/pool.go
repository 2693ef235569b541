package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the shared kernel worker pool. Conv row-block GEMM, the trainer's
// per-sample gradient computation, and any other data-parallel kernel stage
// submit index ranges to it instead of spawning goroutines ad hoc, so total
// kernel concurrency stays bounded by the pool size regardless of how many
// models, shards, or inference strips are active at once.
//
// The pool is deadlock-free under nesting by construction: Run is a
// caller-helps fork-join. The submitting goroutine executes tasks itself
// until the index space is drained, so a Run nested inside a pool task (a
// per-sample gradient task whose conv calls Run for its row blocks) always
// makes progress even when every worker is busy.
//
// Determinism note: the pool only affects *which goroutine* executes a task,
// never how work is partitioned. Kernels partition work by fixed, shape-
// derived block boundaries and fold any partial results in fixed index
// order, so results are bit-for-bit identical for any pool size, including
// the inline size-1 pool.
type Pool struct {
	size    int
	jobs    chan *poolJob
	workers sync.WaitGroup
}

type poolJob struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

// run drains the job's remaining indices, executing tasks until none are
// left. It is called by workers and by the submitting goroutine alike.
func (j *poolJob) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
		j.wg.Done()
	}
}

// NewPool creates a pool with the given number of workers. Sizes <= 1 yield
// an inline pool: Run executes every task on the calling goroutine.
func NewPool(workers int) *Pool {
	p := &Pool{size: workers}
	if workers <= 1 {
		return p
	}
	p.jobs = make(chan *poolJob, 4*workers)
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		// Workers live for the pool's lifetime, not NewPool's: they exit
		// when Close drains the job channel and joins p.workers there.
		go func() {
			defer p.workers.Done()
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	return p
}

// Close shuts the pool down: no Run may be in flight or started afterwards.
// It closes the job channel and joins every worker, so tests and bounded
// pipelines can prove no goroutine outlives the pool. Closing a nil or
// inline pool is a no-op; the process-wide SharedPool is never closed.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	close(p.jobs)
	p.workers.Wait()
}

// Size reports the worker count the pool was created with.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Run executes fn(0..n-1), potentially in parallel across the pool's
// workers, and returns when all n calls have completed. The caller
// participates, so Run may be invoked from inside a pool task. A nil pool
// runs everything inline.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.size <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &poolJob{fn: fn, n: int64(n)}
	j.wg.Add(n)
	// Wake at most n-1 workers; if the queue is full they are all busy and
	// the caller simply does more of the work itself.
	wake := p.size
	if wake > n-1 {
		wake = n - 1
	}
wake:
	for i := 0; i < wake; i++ {
		select {
		case p.jobs <- j:
		default:
			break wake // queue full: every worker is busy
		}
	}
	j.run()
	j.wg.Wait()
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide kernel pool, sized to GOMAXPROCS at
// first use. Models created with NewModel-style constructors default to it.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return sharedPool
}

// Package sweep is the concurrent session engine behind the experiment
// harness: every figure of the paper's evaluation is a sweep of independent
// core.Run sessions (scheme comparisons, policy sweeps, per-trace grids),
// and this package runs them across a bounded worker set instead of one at
// a time, with content-addressed memoization and an optional on-disk
// session-result cache.
//
// Contracts:
//
//   - Per-session determinism. The engine never alters a session: configs
//     are canonicalized (Config.Defaulted, Telemetry stripped) and handed
//     to core.RunContext unchanged, so a session's Results are bitwise
//     identical to a serial core.Run of the same config, for any worker
//     count including 1.
//   - Deterministic ordering. Go returns a Handle immediately; handles
//     resolve in any order but Collect returns results in submission order,
//     so table generation is reproducible byte-for-byte for any Workers.
//   - Bounded kernel concurrency. Every session's kernels run on the
//     process-wide nn.SharedPool, capping total kernel workers at
//     GOMAXPROCS across all concurrent sessions rather than multiplying per
//     session.
//   - Memoization. Two submissions with the same canonical config share one
//     execution (and one cache entry); the paper's figures re-run the same
//     WebRTC baseline for every scheme column, and the engine runs it once.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"livenas/internal/core"
	"livenas/internal/telemetry"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds how many sessions execute concurrently; <= 0 means
	// GOMAXPROCS. Worker count is a throughput knob only: results and
	// result ordering are identical for any value.
	Workers int
	// Cache, when non-nil, persists session results keyed by canonical
	// config hash, so a re-run skips already-computed sessions.
	Cache *Cache
}

// Runner executes ingest sessions across a bounded worker set. Create with
// New, submit with Go, harvest with Handle.Wait or Collect. Submission (Go,
// Collect) is meant for a single orchestrating goroutine; the concurrency
// lives in the workers underneath.
type Runner struct {
	ctx     context.Context
	workers int
	cache   *Cache
	sem     chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*Handle // canonical config key -> shared handle
	order    []*Handle          // submission order, duplicates included

	startedAt time.Time
	submitted atomic.Int64
	started   atomic.Int64
	finished  atomic.Int64
	cached    atomic.Int64
	failed    atomic.Int64
	simGPU    atomic.Int64 // cumulative Results.GPUTrainBusy, ns

	reg *telemetry.Registry
}

// Handle is one submitted session. Wait blocks until the session has run
// (or been served from cache / shared with an identical earlier submission)
// and returns its results.
type Handle struct {
	key    string
	done   chan struct{}
	res    *core.Results
	err    error
	cached bool
}

// Wait blocks until the session completes and returns its results. The
// error is non-nil when the config was invalid or the sweep's context was
// cancelled before the session finished.
func (h *Handle) Wait() (*core.Results, error) {
	<-h.done
	return h.res, h.err
}

// New returns a Runner whose sessions run under ctx: cancelling it aborts
// in-flight sessions at simulator-event boundaries and fails pending ones.
func New(ctx context.Context, o Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		ctx:       ctx,
		workers:   w,
		cache:     o.Cache,
		sem:       make(chan struct{}, w),
		inflight:  map[string]*Handle{},
		startedAt: time.Now(),
		reg:       telemetry.New(),
	}
}

// Telemetry returns the sweep's own registry (not any session's).
func (r *Runner) Telemetry() *telemetry.Registry { return r.reg }

// canonical normalizes a config to its sweep identity: defaults applied and
// no caller registry (every session records into a fresh one of its own).
func canonical(cfg core.Config) core.Config {
	cfg = cfg.Defaulted()
	cfg.Telemetry = nil
	return cfg
}

// Go submits one session and returns its handle immediately. Submissions
// with the same canonical config (Config.Defaulted, ignoring Telemetry)
// share a single execution and return the same handle.
func (r *Runner) Go(cfg core.Config) *Handle {
	r.submitted.Add(1)
	cfg = canonical(cfg)
	key, err := ConfigKey(cfg)
	if err != nil {
		// Un-hashable config: resolve the handle with the error without
		// consuming a worker. (Does not happen for well-formed configs.)
		h := &Handle{done: make(chan struct{}), err: err}
		close(h.done)
		r.admit("", h)
		return h
	}

	h, fresh := r.admit(key, nil)
	if !fresh {
		return h
	}

	r.started.Add(1)
	r.wg.Add(1)
	// Joined by Collect via r.wg; completion is also signalled per-handle
	// through h.done for Handle.Wait.
	go func() {
		defer r.wg.Done()
		defer close(h.done)
		select {
		case r.sem <- struct{}{}:
		case <-r.ctx.Done():
			h.err = r.ctx.Err()
			r.failed.Add(1)
			return
		}
		defer func() { <-r.sem }()
		r.runSession(h, cfg)
	}()
	return h
}

// admit records one submission in order. With a non-empty key it memoizes:
// an in-flight handle for the same key is reused (fresh=false); otherwise a
// new keyed handle (or the supplied pre-resolved one) takes the slot.
func (r *Runner) admit(key string, h *Handle) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key != "" {
		if prev, ok := r.inflight[key]; ok {
			r.order = append(r.order, prev)
			return prev, false
		}
		h = &Handle{key: key, done: make(chan struct{})}
		r.inflight[key] = h
	}
	r.order = append(r.order, h)
	return h, true
}

// runSession resolves one handle: persisted cache first, live run on miss.
func (r *Runner) runSession(h *Handle, cfg core.Config) {
	t0 := time.Now()
	if res, ok := r.cache.Get(h.key); ok {
		h.res, h.cached = res, true
		r.cached.Add(1)
		r.finishSession(h, t0)
		return
	}
	h.res, h.err = core.RunContext(r.ctx, cfg)
	if h.err != nil {
		r.failed.Add(1)
		return
	}
	if err := r.cache.Put(h.key, h.res); err != nil {
		// A cache write failure degrades to a cold cache, never fails the
		// sweep; record it so the operator can see the cache is inert.
		r.reg.Counter("sweep_cache_write_errors").Inc()
	}
	r.finishSession(h, t0)
}

// finishSession accounts a successfully resolved session.
func (r *Runner) finishSession(h *Handle, t0 time.Time) {
	r.finished.Add(1)
	r.simGPU.Add(int64(h.res.GPUTrainBusy))
	r.reg.Emit(time.Since(r.startedAt), "sweep_session",
		telemetry.Str("key", h.key[:12]),
		telemetry.Str("scheme", h.res.Cfg.Scheme.String()),
		telemetry.Num("cached", b2f(h.cached)),
		telemetry.Num("wall_ms", float64(time.Since(t0))/float64(time.Millisecond)),
		telemetry.Num("sim_gpu_ms", float64(h.res.GPUTrainBusy)/float64(time.Millisecond)),
	)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Collect waits for every submitted session and returns their results in
// submission order (a memoized duplicate submission occupies its slot with
// the shared result). The error is the first submission's failure, if any;
// results of successful sessions are returned either way.
func (r *Runner) Collect() ([]*core.Results, error) {
	r.wg.Wait()
	order := r.snapshot()
	out := make([]*core.Results, len(order))
	var firstErr error
	for i, h := range order {
		res, err := h.Wait()
		out[i] = res
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// snapshot copies the submission order.
func (r *Runner) snapshot() []*Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Handle(nil), r.order...)
}

// Stats is a point-in-time digest of the sweep: how many sessions ran,
// how many came from cache, and wall-clock versus cumulative simulated GPU
// training time (the "harness leverage" — how much simulated work the
// machine produced per wall second).
type Stats struct {
	Workers   int
	Submitted int // Go calls, memoized duplicates included
	Started   int // sessions submitted for execution (memoized dupes excluded)
	Finished  int // resolved successfully (cache hits included)
	Cached    int // resolved from the persisted cache
	Failed    int // invalid config or cancelled
	Executed  int // actually simulated: Finished - Cached
	Wall      time.Duration
	SimGPU    time.Duration // cumulative Results.GPUTrainBusy across sessions
}

// Stats returns the sweep's current counters.
func (r *Runner) Stats() Stats {
	fin := int(r.finished.Load())
	cach := int(r.cached.Load())
	return Stats{
		Workers:   r.workers,
		Submitted: int(r.submitted.Load()),
		Started:   int(r.started.Load()),
		Finished:  fin,
		Cached:    cach,
		Failed:    int(r.failed.Load()),
		Executed:  fin - cach,
		Wall:      time.Since(r.startedAt),
		SimGPU:    time.Duration(r.simGPU.Load()),
	}
}

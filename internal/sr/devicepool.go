package sr

import "sync"

// DevicePool models a node-level pool of identical GPUs shared across
// ingest streams. Device models the *cost* of work on one GPU; DevicePool
// models the *capacity* of M of them, so a multi-tenant ingest node can
// admission-control streams against aggregate demand (the fleet layer's
// generalization of the paper's §6.2 intra-stream multi-GPU model to
// inter-stream allocation).
//
// Capacity is counted in whole GPU slots. A stream holding k slots runs its
// training and inference time-multiplexed on those k devices (core's Device
// charges training epochs and inference latency independently, matching
// that assumption). Acquire is all-or-nothing so an admission decision is a
// single atomic capacity check.
type DevicePool struct {
	total int

	mu   sync.Mutex
	used int
	// peak tracks the high-water mark of concurrently held slots, for
	// fleet-level utilization reporting.
	peak int
}

// NewDevicePool returns a pool of n devices; n < 1 is clamped to 1.
func NewDevicePool(n int) *DevicePool {
	if n < 1 {
		n = 1
	}
	return &DevicePool{total: n}
}

// Total returns the pool size in GPU slots.
func (p *DevicePool) Total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// InUse returns the currently held slot count.
func (p *DevicePool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Free returns the currently available slot count.
func (p *DevicePool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total - p.used
}

// Acquire takes n slots all-or-nothing and reports whether it succeeded.
// n <= 0 always succeeds and takes nothing (a degraded stream holds no
// GPU).
func (p *DevicePool) Acquire(n int) bool {
	if n <= 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+n > p.total {
		return false
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

// Release returns n slots to the pool. Releasing more than is held panics:
// it means an accounting bug in the caller, and silently clamping would
// let a fleet admit streams against capacity that does not exist.
func (p *DevicePool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.used {
		panic("sr: DevicePool.Release of more slots than acquired")
	}
	p.used -= n
}

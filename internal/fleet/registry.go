package fleet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"livenas/internal/core"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
)

// Manager is the ingest node's multi-tenant session registry. It runs on a
// virtual clock: Register advances it to each arrival, resolving due
// departures (and any queued admissions they unblock) first, so the whole
// admission timeline is a deterministic function of the stream specs, the
// pool size and the policy.
//
// Manager is not safe for concurrent use; it models one node's admission
// sequence. The session *executions* it plans are what run in parallel
// (sweep.Runner), and those never touch the manager.
type Manager struct {
	opts Options
	pool *sr.DevicePool
	reg  *telemetry.Registry

	now      time.Duration
	sessions map[string]*Session
	order    []*Session // registration order — the deterministic iteration order

	queue      []*Session // FIFO backpressure queue (PolicyQueue)
	departures []*Session // pending departures sorted by (DepartAt, Key)

	// Fleet-level instruments (prefix "fleet_").
	cAdmitted, cDegraded, cRejected, cQueued *telemetry.Counter
	gInUse, gQueueDepth, gActive             *telemetry.Gauge
	hAdmitMS                                 *telemetry.Histogram
}

// NewManager returns a manager for a node with o.GPUs devices.
func NewManager(o Options) *Manager {
	o = o.withDefaults()
	m := &Manager{
		opts:     o,
		pool:     sr.NewDevicePool(o.Device, o.GPUs),
		reg:      o.Telemetry,
		sessions: map[string]*Session{},
	}
	m.cAdmitted = m.reg.Counter("fleet_streams_admitted")
	m.cDegraded = m.reg.Counter("fleet_streams_degraded")
	m.cRejected = m.reg.Counter("fleet_streams_rejected")
	m.cQueued = m.reg.Counter("fleet_streams_queued")
	m.gInUse = m.reg.Gauge("fleet_gpu_in_use")
	m.gQueueDepth = m.reg.Gauge("fleet_queue_depth")
	m.gActive = m.reg.Gauge("fleet_active_streams")
	m.reg.Gauge("fleet_gpu_total").Set(float64(o.GPUs))
	m.hAdmitMS = m.reg.Histogram("fleet_admit_latency_ms", telemetry.ExpBuckets(1, 2, 20))
	return m
}

// Pool exposes the node's GPU pool (read-mostly: capacity and utilization).
func (m *Manager) Pool() *sr.DevicePool { return m.pool }

// Now returns the manager's virtual clock.
func (m *Manager) Now() time.Duration { return m.now }

// Sessions returns every registered session in registration order. The
// slice is the manager's own bookkeeping; treat it as read-only.
func (m *Manager) Sessions() []*Session { return m.order }

// Lookup returns the session for a channel key, or nil.
func (m *Manager) Lookup(key string) *Session { return m.sessions[key] }

// QueueDepth returns the number of streams currently waiting for capacity.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Register admits (or queues, degrades, rejects — per policy) a stream
// arriving at spec.ArriveAt. Arrivals must be non-decreasing in time; a
// duplicate live channel key returns ErrDuplicateKey. The returned session
// records the admission outcome; for admitted streams Cfg is finalized
// (ChannelKey, GPU allocation, degraded scheme) and DepartAt is scheduled
// at AdmitAt + Cfg.Duration.
func (m *Manager) Register(spec StreamSpec) (*Session, error) {
	if spec.Key == "" {
		return nil, fmt.Errorf("fleet: empty channel key")
	}
	if spec.ArriveAt < m.now {
		return nil, fmt.Errorf("fleet: arrival at %v before clock %v (register in arrival order)", spec.ArriveAt, m.now)
	}
	if s, ok := m.sessions[spec.Key]; ok && s.State != StateTorndown && s.State != StateRejected {
		return nil, ErrDuplicateKey{Key: spec.Key}
	}
	m.AdvanceTo(spec.ArriveAt)

	cfg := spec.Cfg.Defaulted()
	cfg.ChannelKey = spec.Key
	weight := spec.Weight
	if weight <= 0 {
		weight = ContentWeight(cfg)
	}
	s := &Session{
		Key:      spec.Key,
		State:    StateRegistered,
		Weight:   weight,
		ArriveAt: spec.ArriveAt,
		Cfg:      cfg,
	}
	m.sessions[s.Key] = s
	m.order = append(m.order, s)

	if m.pool.Free() > 0 {
		m.admit(s)
		return s, nil
	}

	// Saturated: backpressure. Every over-capacity arrival emits the
	// backpressure event; the policy decides what happens to the stream.
	m.reg.Emit(m.now, "fleet_backpressure",
		telemetry.Str("key", s.Key),
		telemetry.Str("policy", m.opts.Policy.String()),
		telemetry.Num("gpu_in_use", float64(m.pool.InUse())),
		telemetry.Num("queue_depth", float64(len(m.queue))))
	switch m.opts.Policy {
	case PolicyReject:
		s.State = StateRejected
		m.cRejected.Inc()
		m.reg.Emit(m.now, "fleet_reject", telemetry.Str("key", s.Key))
	case PolicyDegrade:
		s.State = StateIngesting
		s.Degraded = true
		s.AdmitAt = m.now
		s.DepartAt = m.now + s.Cfg.Duration
		s.Cfg.Scheme = core.SchemeWebRTC
		s.Cfg.TrainGPUs, s.Cfg.InferGPUs = 1, 1 // cost-model floor; holds no pool slot
		m.scheduleDeparture(s)
		m.cDegraded.Inc()
		m.hAdmitMS.Observe(0)
		m.reg.Emit(m.now, "fleet_degrade", telemetry.Str("key", s.Key))
		m.setGauges()
	default: // PolicyQueue
		s.State = StateQueued
		m.queue = append(m.queue, s)
		m.cQueued.Inc()
		m.setGauges()
	}
	return s, nil
}

// admit grants s its GPU allocation at the current clock and schedules its
// departure. Caller guarantees at least one free slot.
func (m *Manager) admit(s *Session) {
	n := m.grant(s)
	if !m.pool.Acquire(n) {
		panic("fleet: admit with insufficient capacity")
	}
	s.State = StateIngesting
	s.GPUs = n
	s.AdmitAt = m.now
	s.DepartAt = m.now + s.Cfg.Duration
	s.Cfg.TrainGPUs, s.Cfg.InferGPUs = n, n
	m.scheduleDeparture(s)
	m.cAdmitted.Inc()
	m.hAdmitMS.Observe(float64(s.AdmitLatency()) / float64(time.Millisecond))
	m.reg.Emit(m.now, "fleet_admit",
		telemetry.Str("key", s.Key),
		telemetry.Num("gpus", float64(n)),
		telemetry.Num("wait_ms", float64(s.AdmitLatency())/float64(time.Millisecond)),
		telemetry.Num("weight", s.Weight))
	m.setGauges()
}

// grant sizes the arriving stream's allocation: its D'Hondt share of the
// whole pool against the currently active streams' weights, clamped to
// [1, free, MaxGPUsPerStream]. Active streams keep their allocations
// (slots are sticky for a stream's lifetime — re-slicing a live session's
// GPUs would invalidate its simulated training timeline), so the share
// only shapes how much of the remaining capacity a newcomer may claim.
func (m *Manager) grant(s *Session) int {
	keys := []string{s.Key}
	weights := map[string]float64{s.Key: s.Weight}
	for _, o := range m.order {
		if o != s && o.State == StateIngesting && !o.Degraded {
			keys = append(keys, o.Key)
			weights[o.Key] = o.Weight
		}
	}
	ideal := Allocate(keys, weights, m.pool.Total(), m.opts.MaxGPUsPerStream)[s.Key]
	n := ideal
	if free := m.pool.Free(); n > free {
		n = free
	}
	if n > m.opts.MaxGPUsPerStream {
		n = m.opts.MaxGPUsPerStream
	}
	if n < 1 {
		n = 1
	}
	return n
}

// AdvanceTo moves the virtual clock to t, resolving departures due at or
// before t in (time, key) order and admitting queued streams as capacity
// frees.
func (m *Manager) AdvanceTo(t time.Duration) {
	for len(m.departures) > 0 && m.departures[0].DepartAt <= t {
		s := m.departures[0]
		m.departures = m.departures[1:]
		m.now = s.DepartAt
		m.teardown(s)
	}
	if t > m.now {
		m.now = t
	}
}

// Teardown ends a live stream at the current clock: its GPU slots return
// to the pool and any queued stream that now fits is admitted. Tearing
// down an already-departed or rejected stream is a no-op; an unknown key
// is an error.
func (m *Manager) Teardown(key string) error {
	s, ok := m.sessions[key]
	if !ok {
		return fmt.Errorf("fleet: teardown of unknown channel key %q", key)
	}
	switch s.State {
	case StateTorndown, StateRejected:
		return nil
	case StateQueued:
		for i, q := range m.queue {
			if q == s {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		s.State = StateTorndown
		s.DepartAt = m.now
		m.setGauges()
		return nil
	case StateRegistered, StateIngesting, StateTrained:
		// Live (or registered mid-admission): handled below.
	}
	// Cancel the scheduled departure and depart now.
	for i, d := range m.departures {
		if d == s {
			m.departures = append(m.departures[:i], m.departures[i+1:]...)
			break
		}
	}
	s.DepartAt = m.now
	m.teardown(s)
	return nil
}

// teardown releases s's slots, marks it departed and drains the queue.
func (m *Manager) teardown(s *Session) {
	if s.GPUs > 0 {
		m.pool.Release(s.GPUs)
	}
	if s.State == StateIngesting {
		s.State = StateTorndown
	} else if s.State == StateTrained {
		s.State = StateTorndown
	}
	m.reg.Emit(m.now, "fleet_teardown",
		telemetry.Str("key", s.Key),
		telemetry.Num("gpus", float64(s.GPUs)))
	m.setGauges()
	for len(m.queue) > 0 && m.pool.Free() > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.admit(next)
	}
}

// Finish runs the virtual timeline to completion: every scheduled
// departure resolves (admitting queued streams as capacity frees) until
// the node is idle.
func (m *Manager) Finish() {
	for len(m.departures) > 0 {
		m.AdvanceTo(m.departures[0].DepartAt)
	}
	m.setGauges()
}

// scheduleDeparture inserts s into the pending-departure list keeping it
// sorted by (DepartAt, Key) — the deterministic resolution order.
func (m *Manager) scheduleDeparture(s *Session) {
	i := sort.Search(len(m.departures), func(i int) bool {
		d := m.departures[i]
		if d.DepartAt != s.DepartAt {
			return d.DepartAt > s.DepartAt
		}
		return d.Key > s.Key
	})
	m.departures = append(m.departures, nil)
	copy(m.departures[i+1:], m.departures[i:])
	m.departures[i] = s
}

func (m *Manager) setGauges() {
	m.gInUse.Set(float64(m.pool.InUse()))
	m.gQueueDepth.Set(float64(len(m.queue)))
	active := 0
	for _, s := range m.order {
		if s.State == StateIngesting || s.State == StateTrained {
			active++
		}
	}
	m.gActive.Set(float64(active))
}

// Ingest runs an admitted stream's session inline on the calling
// goroutine (the live-server path; experiment plans go through Plan/
// sweep instead). On success the session holds its Results and moves to
// StateTrained; teardown remains the caller's step. The session's config
// is run as finalized at admission.
func (m *Manager) Ingest(ctx context.Context, key string) (*core.Results, error) {
	s, ok := m.sessions[key]
	if !ok {
		return nil, fmt.Errorf("fleet: ingest of unknown channel key %q", key)
	}
	if s.State != StateIngesting {
		return nil, fmt.Errorf("fleet: ingest of %q in state %s", key, s.State)
	}
	res, err := core.RunContext(ctx, s.Cfg)
	if err != nil {
		return nil, err
	}
	s.Results = res
	s.State = StateTrained
	m.reg.Emit(m.now, "fleet_trained", telemetry.Str("key", s.Key))
	return res, nil
}

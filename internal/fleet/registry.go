package fleet

import (
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

	cRejected *telemetry.Counter // fleet_streams_rejected
}

// NewManager returns a manager for a node with o.GPUs devices.
func NewManager(o Options) *Manager {
	o = o.withDefaults()
	m := &Manager{
		opts:     o,
		pool:     sr.NewDevicePool(o.GPUs),
		reg:      o.Telemetry,
		sessions: map[string]*Session{},
	}
	m.cRejected = m.reg.Counter("fleet_streams_rejected")
	return m
}

// Pool exposes the node's GPU pool (read-mostly: capacity and utilization).
func (m *Manager) Pool() *sr.DevicePool { return m.pool }

// Sessions returns every registered session in registration order. The
// slice is the manager's own bookkeeping; treat it as read-only.
func (m *Manager) Sessions() []*Session { return m.order }

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
	// Resolve the departures due by this arrival first: a key whose stream
	// has departed is free again.
	m.AdvanceTo(spec.ArriveAt)
	if s, ok := m.sessions[spec.Key]; ok && s.State != StateTorndown && s.State != StateRejected {
		return nil, ErrDuplicateKey{Key: spec.Key}
	}

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
	default: // PolicyQueue
		s.State = StateQueued
		m.queue = append(m.queue, s)
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

// teardown releases s's slots, marks it departed and drains the queue.
func (m *Manager) teardown(s *Session) {
	if s.GPUs > 0 {
		m.pool.Release(s.GPUs)
	}
	if s.State == StateIngesting {
		s.State = StateTorndown
	}
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

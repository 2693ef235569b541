package fleet

import (
	"fmt"
	"sort"
	"time"

	"livenas/internal/sweep"
)

// Plan is a completed virtual admission timeline for a batch of streams:
// every arrival registered, every departure resolved, every queued stream
// either admitted or still waiting when the node drained. The admitted
// sessions' finalized configs are ready for execution; Submit/Collect run
// them through a sweep.Runner in registration order, so results are
// bit-reproducible for any worker count (the runner's submission-order
// Collect contract).
type Plan struct {
	M *Manager
}

// BuildPlan registers every spec (in slice order; arrivals must be
// non-decreasing) against a fresh Manager and runs the virtual timeline to
// completion. Spec errors (duplicate live key, empty key, out-of-order
// arrival) abort the plan.
func BuildPlan(specs []StreamSpec, o Options) (*Plan, error) {
	m := NewManager(o)
	for i, spec := range specs {
		if _, err := m.Register(spec); err != nil {
			return nil, fmt.Errorf("fleet: spec %d: %w", i, err)
		}
	}
	m.Finish()
	return &Plan{M: m}, nil
}

// Submit sends every admitted stream's session to the runner in
// registration order. Rejected streams (and queued streams that never got
// capacity) are skipped — they have no session to run.
func (p *Plan) Submit(r *sweep.Runner) {
	for _, s := range p.M.Sessions() {
		if s.Admitted() {
			s.handle = r.Go(s.Cfg)
		}
	}
}

// Collect waits for every submitted session and attaches its Results, in
// registration order; the first session error aborts.
func (p *Plan) Collect() error {
	for _, s := range p.M.Sessions() {
		if s.handle == nil {
			continue
		}
		res, err := s.handle.Wait()
		if err != nil {
			return fmt.Errorf("fleet: stream %q: %w", s.Key, err)
		}
		s.Results = res
	}
	return nil
}

// Stats summarizes a plan's admission timeline.
type Stats struct {
	Streams  int // registered arrivals
	Admitted int // granted GPUs (immediately or after queueing)
	Degraded int // admitted without GPUs (PolicyDegrade)
	Rejected int // refused (PolicyReject)
	Starved  int // queued and never admitted

	// GPUSlotSeconds is the integral of held slots over time; Utilization
	// divides it by pool capacity × the busy span (first arrival to last
	// departure).
	GPUSlotSeconds float64
	Utilization    float64

	// Admission-latency distribution over admitted, non-degraded streams
	// (degraded streams never wait — that is the policy's point).
	AdmitP50 time.Duration
	AdmitP99 time.Duration
}

// Stats computes the plan's admission summary. Pure arithmetic over the
// recorded timeline — deterministic, independent of execution order.
func (p *Plan) Stats() Stats {
	var st Stats
	var first, last time.Duration
	var lats []time.Duration
	for i, s := range p.M.Sessions() {
		st.Streams++
		if i == 0 || s.ArriveAt < first {
			first = s.ArriveAt
		}
		switch {
		case s.State == StateRejected:
			st.Rejected++
			continue
		case s.State == StateQueued:
			st.Starved++
			continue
		case s.Degraded:
			st.Degraded++
		default:
			st.Admitted++
			lats = append(lats, s.AdmitLatency())
		}
		if s.DepartAt > last {
			last = s.DepartAt
		}
		st.GPUSlotSeconds += float64(float64(s.GPUs) * (s.DepartAt - s.AdmitAt).Seconds())
	}
	if span := (last - first).Seconds(); span > 0 {
		st.Utilization = st.GPUSlotSeconds / (float64(p.M.Pool().Total()) * span)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.AdmitP50 = lats[len(lats)/2]
		st.AdmitP99 = lats[(len(lats)*99)/100]
	}
	return st
}

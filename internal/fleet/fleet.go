// Package fleet turns the single-session ingest core into a multi-tenant
// ingest node: a channel-key session registry with a per-stream lifecycle
// (register → ingest → departure; admitted sessions run on a sweep.Runner
// through Plan.Submit/Collect), admission control with backpressure
// against a shared sr.DevicePool, and a cross-stream GPU scheduler that
// multiplexes N streams onto M devices by quality-weighted allocation —
// the generalization of the paper's §6.2 intra-stream multi-GPU model to
// inter-stream contention (cf. Palantír's latency-budgeted SR scheduling
// and BONES' budgeted enhancement allocation, PAPERS.md).
//
// The fleet operates on the same virtual clock as the sessions it admits:
// arrivals, admissions, queue waits and departures are all simulated time,
// so an admission plan is a pure function of (streams, pool, policy) —
// bit-reproducible regardless of how many workers later execute the
// admitted sessions. Determinism contract: sessions are tracked in
// registration order (never map order), departures resolve in (time, key)
// order, the queue is FIFO, and the allocator breaks ties by registration
// order, so fleet tables are byte-identical for any sweep parallelism.
package fleet

import (
	"fmt"
	"time"

	"livenas/internal/core"
	"livenas/internal/sweep"
	"livenas/internal/telemetry"
)

// Policy selects what admission does when the GPU pool is saturated.
type Policy int

const (
	// PolicyReject refuses over-capacity streams outright.
	PolicyReject Policy = iota
	// PolicyDegrade admits over-capacity streams without any GPU: the
	// stream ingests and is delivered bilinear-upscaled (core.SchemeWebRTC),
	// trading quality for availability.
	PolicyDegrade
	// PolicyQueue applies backpressure: over-capacity streams wait in FIFO
	// order and are admitted as departures free capacity.
	PolicyQueue
)

func (p Policy) String() string {
	switch p {
	case PolicyReject:
		return "reject"
	case PolicyDegrade:
		return "degrade"
	default:
		return "queue"
	}
}

// State is a stream's position in the fleet lifecycle.
type State int

const (
	// StateRegistered: channel key reserved, admission not yet decided.
	StateRegistered State = iota
	// StateQueued: waiting for GPU capacity (PolicyQueue backpressure).
	StateQueued
	// StateIngesting: admitted and streaming; its session owns its GPU
	// slots, nn kernel pool and tensor arenas for the stream's lifetime.
	StateIngesting
	// StateRejected: refused at admission (PolicyReject under a full pool).
	StateRejected
	// StateTorndown: departed; GPU slots returned to the pool.
	StateTorndown
)

func (s State) String() string {
	switch s {
	case StateRegistered:
		return "registered"
	case StateQueued:
		return "queued"
	case StateIngesting:
		return "ingesting"
	case StateRejected:
		return "rejected"
	default:
		return "torndown"
	}
}

// Options configures a fleet Manager.
type Options struct {
	// GPUs is the node's pool size M (default 2, the paper's ingest server).
	GPUs int
	// Policy selects the over-capacity behaviour (default PolicyReject).
	Policy Policy
	// MaxGPUsPerStream caps one stream's allocation (default 4, > which
	// stitch overhead dominates the paper's intra-frame split).
	MaxGPUsPerStream int
	// Telemetry receives the rejected-stream count and the backpressure
	// and reject events. Nil installs a fresh registry.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.GPUs <= 0 {
		o.GPUs = 2
	}
	if o.MaxGPUsPerStream <= 0 {
		o.MaxGPUsPerStream = 4
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.New()
	}
	return o
}

// StreamSpec describes one streamer arriving at the ingest node.
type StreamSpec struct {
	// Key is the stream's channel key, unique per live stream (the RTMP
	// stream-key analogue). Empty keys are rejected.
	Key string
	// ArriveAt is the virtual arrival time. Register processes departures
	// due before it; arrivals must be submitted in non-decreasing order.
	ArriveAt time.Duration
	// Cfg is the stream's session configuration. The manager finalizes it
	// at admission: ChannelKey is set, TrainGPUs/InferGPUs follow the
	// scheduler's allocation, and a degraded admission downgrades Scheme to
	// core.SchemeWebRTC.
	Cfg core.Config
	// Weight is the stream's quality weight — the marginal PSNR gain per
	// compute-nanosecond proxy the allocator shares GPUs by. 0 derives it
	// from the stream's content via ContentWeight.
	Weight float64
}

// Session is one registered stream's fleet-side record.
type Session struct {
	Key      string
	State    State
	Degraded bool // admitted without GPUs under PolicyDegrade

	// GPUs is the allocation granted at admission (0 for degraded or
	// rejected streams).
	GPUs int
	// Weight is the quality weight used by the allocator.
	Weight float64

	ArriveAt time.Duration // registration time
	AdmitAt  time.Duration // admission time (== ArriveAt unless queued)
	DepartAt time.Duration // teardown time (admitted streams only)

	// Cfg is the finalized session config the stream runs with.
	Cfg core.Config
	// Results holds the session's results once the stream has run.
	Results *core.Results

	handle *sweep.Handle // pending sweep execution, set by Submit
}

// AdmitLatency is how long the stream waited for capacity: zero for
// immediately admitted streams, the backpressure delay for queued ones.
// Meaningless for rejected streams (which were never admitted).
func (s *Session) AdmitLatency() time.Duration { return s.AdmitAt - s.ArriveAt }

// Admitted reports whether the stream was admitted to ingest (possibly
// degraded).
func (s *Session) Admitted() bool {
	switch s.State {
	case StateIngesting, StateTorndown:
		return true
	default:
		return false
	}
}

// ErrDuplicateKey is returned by Register when the channel key is already
// live (registered and not yet torn down or rejected).
type ErrDuplicateKey struct{ Key string }

func (e ErrDuplicateKey) Error() string {
	return fmt.Sprintf("fleet: channel key %q already registered", e.Key)
}

// Package edge is the distribution side of LiveNAS: once the ingest server
// has super-resolved a channel's uplink into a high-quality stream (§1: "the
// quality of the ingest side inherently limits the quality to the
// distribution side"), this package fans that enhanced output out to
// viewers. An Origin packages the enhanced stream into HLS-style segments —
// a fixed virtual-time segment duration, a rolling playlist, content-
// addressed segment IDs — Relay nodes subscribe to the origin (or to other
// relays: trees go two and more levels deep) and serve many viewers with a
// pull-through segment cache, and Viewer sessions fetch playlist+segments,
// choosing rungs with the ABR algorithms in internal/abr.
//
// Every actor is an event-driven state machine over transport.Conn: it
// never blocks in Recv. In simulation, SimConn's OnMessage delivers
// messages at their virtual arrival time on the simulator goroutine; in
// real processes (cmd/livenas-edge, cmd/livenas-server's origin endpoint),
// a per-connection goroutine pumps Recv into the same Handle methods. The
// identical actor code therefore drives both the deterministic `edge`
// experiment and real sockets.
//
// Backpressure toward slow viewers is the transport's drop-oldest bounded
// queue (SimConn) or its real-process equivalent in cmd/livenas-edge: a
// stale segment is worthless to a live viewer, the newest is not. Viewers
// recover from drops by request timeout plus skip-ahead against the rolling
// playlist window.
package edge

import (
	"time"

	"livenas/internal/sim"
	"livenas/internal/telemetry"
)

// Clock is the time source the edge actors schedule against, abstracting
// the virtual clock (experiments) from the wall clock (real processes).
// After callbacks must run on the same goroutine discipline as message
// delivery: the simulator goroutine in simulation, any goroutine in real
// mode (the actors lock internally).
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// SimClock adapts the discrete-event simulator to Clock.
type SimClock struct{ S *sim.Simulator }

// Now returns the virtual time.
func (c SimClock) Now() time.Duration { return c.S.Now() }

// After schedules fn on the simulator.
func (c SimClock) After(d time.Duration, fn func()) { c.S.After(d, fn) }

// WallClock is the real-process Clock: durations since construction.
// Experiments run on SimClock; only the runnable processes read the wall.
type WallClock struct{ start time.Time }

// NewWallClock starts a wall clock at zero.
func NewWallClock() *WallClock {
	return &WallClock{start: time.Now()}
}

// Now returns the wall time since construction.
func (c *WallClock) Now() time.Duration {
	return time.Since(c.start)
}

// After schedules fn on a timer goroutine.
func (c *WallClock) After(d time.Duration, fn func()) {
	time.AfterFunc(d, fn)
}

// Telemetry bundles the edge_* handles. The edge package owns the "edge_"
// prefix; handles are registered once here and held (nil-safe, so actors
// built without a registry pay only nil-receiver no-ops).
type Telemetry struct {
	SegsPublished *telemetry.Counter   // segments cut at the origin (x rungs)
	SegsDelivered *telemetry.Counter   // segments accepted by viewers
	Delivery      *telemetry.Histogram // publish->viewer latency, ms
}

// NewTelemetry registers the edge metric family on reg (nil reg => nil
// handles, every operation a no-op).
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		SegsPublished: reg.Counter("edge_segments_published"),
		SegsDelivered: reg.Counter("edge_segments_delivered"),
		Delivery:      reg.Histogram("edge_delivery_latency_ms", telemetry.ExpBuckets(1, 2, 14)),
	}
}

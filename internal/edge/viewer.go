package edge

import (
	"sync"
	"time"

	"livenas/internal/abr"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

// ViewerConfig configures one playback session.
type ViewerConfig struct {
	Channel string
	// Alg picks the rung for each request (default: RobustMPC). One
	// instance per viewer: algorithms carry state.
	Alg abr.Algorithm
	// StartBehind is how many segments behind the live edge playback joins
	// (default 1 — live streams join near the edge, not at the window
	// start, trading history for latency).
	StartBehind int
	// StartupBuffer is the buffer level at which playback starts or resumes
	// after a stall (default: one segment duration).
	StartupBuffer time.Duration
	// BufferCap stops requesting once the buffer would exceed it
	// (default 8s, the live-style cap used across the repo's ABR work).
	BufferCap time.Duration
	// RequestTimeout bounds one segment fetch; an expired fetch is treated
	// as lost — the drop-oldest queue upstream ate it — and the viewer
	// skips ahead if newer segments exist (default: two segment durations).
	RequestTimeout time.Duration
	// OnPlay, if set, observes every accepted segment (index, rung) in
	// delivery order. Instrumentation hook for tests and status surfaces;
	// called with the viewer's lock held — do not call back in.
	OnPlay func(index, rung int)
}

// ViewerStats is one session's playback outcome.
type ViewerStats struct {
	Played     int // segments received and buffered
	Skipped    int // segments abandoned (drops/timeouts/window falls)
	Duplicates int // late or duplicate deliveries discarded
	Timeouts   int // fetches that hit RequestTimeout
	Bytes      int64
	Stall      time.Duration // rebuffer time after playback first started
	KbpsSum    float64       // sum of chosen-rung network bitrates
	EffSum     float64       // sum of chosen-rung effective bitrates
	Latencies  []time.Duration
}

// Viewer is one playback session: it subscribes to a channel on its
// connection, follows playlist pushes, fetches one segment at a time at the
// rung its ABR algorithm picks, and models a live player's buffer (startup
// threshold, stall accounting, skip-ahead when it falls out of the rolling
// window). Event-driven like the other actors: Handle is fed by the
// connection's delivery loop, timers come from the Clock.
type Viewer struct {
	mu    sync.Mutex
	clock Clock
	cfg   ViewerConfig
	tel   *Telemetry
	conn  transport.Conn

	pl     *Playlist // latest window; its Rungs are the ladder the ABR picks from
	segDur time.Duration

	started     bool // playback position initialised from the first playlist
	next        int  // next segment index to fetch
	outstanding bool
	reqIndex    int
	reqRung     int
	reqAt       time.Duration
	gen         int  // request generation, invalidates stale timeout timers
	checkArmed  bool // a buffer-drain re-check timer is pending

	thr       []float64 // recent throughput samples, kbps
	buffer    time.Duration
	playing   bool
	everBegan bool
	lastAt    time.Duration

	stats ViewerStats
}

// NewViewer creates a session; Attach connects it.
func NewViewer(clock Clock, cfg ViewerConfig, tel *Telemetry) *Viewer {
	if cfg.Alg == nil {
		cfg.Alg = &abr.RobustMPC{}
	}
	if cfg.StartBehind <= 0 {
		cfg.StartBehind = 1
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 8 * time.Second
	}
	return &Viewer{clock: clock, cfg: cfg, tel: tel}
}

// Attach (re)connects the viewer and subscribes, resuming from its current
// position: FrameID carries the next index it still needs, so after a relay
// failover it neither re-plays old segments nor waits for ones it has.
func (v *Viewer) Attach(conn transport.Conn) error {
	resume := v.rebind(conn)
	// cfg is immutable after NewViewer; the send must stay outside v.mu (it
	// can block on a real socket).
	return conn.Send(&wire.Message{Type: wire.MsgSubscribe, Channel: v.cfg.Channel, FrameID: resume})
}

// rebind swaps in the new connection and returns the resume index.
func (v *Viewer) rebind(conn transport.Conn) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.conn = conn
	v.outstanding = false // a fetch in flight on the old conn is lost
	v.gen++
	return v.next
}

// Handle processes one message from the viewer's connection.
func (v *Viewer) Handle(m *wire.Message) {
	v.mu.Lock()
	defer v.mu.Unlock()
	now := v.clock.Now()
	v.account(now)
	switch m.Type {
	case wire.MsgPlaylist:
		pl, err := DecodePlaylist(m.Data)
		if err != nil || pl.Channel != v.cfg.Channel {
			return
		}
		v.pl = pl
		if len(pl.Segments) > 0 {
			v.segDur = durUS(pl.Segments[0].DurUS)
			if !v.started {
				v.started = true
				start := pl.LiveEdge() - v.cfg.StartBehind + 1
				if o := pl.Oldest(); start < o {
					start = o
				}
				if start > v.next { // resume position wins when it is newer
					v.next = start
				}
			}
		}
		v.maybeRequest(now)
	case wire.MsgSegment:
		if !v.outstanding || m.FrameID != v.reqIndex || m.Rung != v.reqRung {
			v.stats.Duplicates++
			return
		}
		v.outstanding = false
		v.gen++
		size := int64(m.WireSize())
		v.stats.Bytes += size
		if dt := now - v.reqAt; dt > 0 {
			if len(v.thr) == 20 { // copy down: re-slicing would walk the window through an ever-growing array
				v.thr = v.thr[:copy(v.thr, v.thr[1:])]
			}
			v.thr = append(v.thr, float64(size*8)/dt.Seconds()/1000)
		}
		v.stats.Played++
		if v.pl != nil {
			if v.reqRung < len(v.pl.Rungs) {
				v.stats.KbpsSum += v.pl.Rungs[v.reqRung].Kbps
				v.stats.EffSum += v.pl.Rungs[v.reqRung].EffectiveKbps
			}
			if ref := v.pl.Ref(m.FrameID); ref != nil {
				lat := now - durUS(ref.PubUS)
				v.stats.Latencies = append(v.stats.Latencies, lat)
				v.tel.Delivery.Observe(float64(lat.Microseconds()) / 1000)
			}
		}
		v.tel.SegsDelivered.Add(1)
		if v.cfg.OnPlay != nil {
			v.cfg.OnPlay(m.FrameID, m.Rung)
		}
		v.buffer += durUS(m.SegDurUS)
		v.startIfReady()
		v.next = m.FrameID + 1
		v.maybeRequest(now)
	default:
		// Unknown or unrelated types: tolerated and ignored (wire contract).
	}
}

// account advances the playback model to now: playing drains the buffer;
// an empty buffer is a stall (counted only after playback first began —
// startup delay is join latency, not rebuffering).
func (v *Viewer) account(now time.Duration) {
	elapsed := now - v.lastAt
	v.lastAt = now
	if elapsed <= 0 || !v.everBegan {
		return
	}
	if v.playing {
		if elapsed >= v.buffer {
			v.stats.Stall += elapsed - v.buffer
			v.buffer = 0
			v.playing = false
		} else {
			v.buffer -= elapsed
		}
	} else {
		v.stats.Stall += elapsed
	}
}

// startIfReady flips to playing when the buffer clears the startup
// threshold. Callers hold v.mu and have called account.
func (v *Viewer) startIfReady() {
	startup := v.cfg.StartupBuffer
	if startup <= 0 {
		startup = v.segDur
	}
	if v.playing || v.buffer < startup || startup == 0 {
		return
	}
	v.playing = true
	v.everBegan = true
}

// maybeRequest issues the next fetch if one is due. Callers hold v.mu.
func (v *Viewer) maybeRequest(now time.Duration) {
	if v.pl == nil || v.outstanding || v.conn == nil || len(v.pl.Segments) == 0 {
		return
	}
	if v.buffer+v.segDur > v.cfg.BufferCap {
		// Full: re-check after the buffer drained one segment's worth.
		if !v.checkArmed && v.segDur > 0 {
			v.checkArmed = true
			v.clock.After(v.segDur/2, func() {
				v.mu.Lock()
				defer v.mu.Unlock()
				v.checkArmed = false
				v.account(v.clock.Now())
				v.maybeRequest(v.clock.Now())
			})
		}
		return
	}
	if o := v.pl.Oldest(); v.next < o {
		// The rolling window moved past us (we stalled or lost segments):
		// skip to the window start, like a live player rejoining the edge.
		v.stats.Skipped += o - v.next
		v.next = o
	}
	if v.next > v.pl.LiveEdge() {
		return // fully caught up; the next playlist push re-triggers us
	}
	rung := v.cfg.Alg.Next(v.pl.Rungs, v.thr, v.buffer)
	if rung < 0 {
		rung = 0
	}
	if rung >= len(v.pl.Rungs) {
		rung = len(v.pl.Rungs) - 1
	}
	v.outstanding = true
	v.reqIndex, v.reqRung, v.reqAt = v.next, rung, now
	v.gen++
	gen := v.gen
	v.conn.Send(&wire.Message{Type: wire.MsgSegmentReq, Channel: v.cfg.Channel, FrameID: v.next, Rung: rung})
	timeout := v.cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 2 * v.segDur
	}
	if timeout <= 0 {
		return
	}
	v.clock.After(timeout, func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		if !v.outstanding || v.gen != gen {
			return
		}
		v.outstanding = false
		v.stats.Timeouts++
		now := v.clock.Now()
		v.account(now)
		if v.pl != nil && v.next < v.pl.LiveEdge() {
			// The segment likely fell to drop-oldest backpressure; newer
			// ones exist, so chase the live edge rather than retry forever.
			v.stats.Skipped++
			v.next++
		}
		v.maybeRequest(now)
	})
}

// Finish flushes playback accounting to now and returns the session stats.
func (v *Viewer) Finish() ViewerStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.account(v.clock.Now())
	return v.stats
}

// Playing reports whether the session is currently playing (false also
// before startup).
func (v *Viewer) Playing() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.playing
}

// Position returns the next segment index the viewer needs.
func (v *Viewer) Position() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.next
}

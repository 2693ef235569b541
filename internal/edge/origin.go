package edge

import (
	"slices"
	"sync"
	"time"

	"livenas/internal/transport"
	"livenas/internal/wire"
)

// Origin is the root of a channel's distribution tree: it packages the
// enhanced output into segments (one Segmenter per channel), pushes the
// rolling playlist to every subscriber on each publish, and answers
// segment requests from its cache. Subscribers are usually relays; a
// viewer connecting straight to the origin works identically (that *is*
// the no-CDN baseline the edge experiment compares against).
//
// All methods are safe for concurrent use; message entry points
// (Handle/RemoveConn) are driven by OnMessage in simulation and by
// per-connection Recv goroutines in real processes.
type Origin struct {
	mu       sync.Mutex
	clock    Clock
	tel      *Telemetry
	window   int
	channels map[string]*originChannel
	egress   int64
}

type originChannel struct {
	seg *Segmenter
	raw []byte // the playlist as last pushed; nil before the first publish
	// Subscribers in subscription order: a slice, not a map, so playlist
	// fan-out order is deterministic.
	subs []transport.Conn
}

// NewOrigin creates an origin whose playlists keep window segments.
func NewOrigin(clock Clock, window int, tel *Telemetry) *Origin {
	return &Origin{
		clock:    clock,
		tel:      tel,
		window:   window,
		channels: make(map[string]*originChannel),
	}
}

// AddChannel starts distributing a channel with the given ladder and
// segment duration. Publishing to or subscribing an unknown channel is
// ignored, so AddChannel must come first.
func (o *Origin) AddChannel(channel string, segDur time.Duration, rungs []RungInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.channels[channel]; ok {
		return
	}
	o.channels[channel] = &originChannel{
		seg: NewSegmenter(channel, segDur, rungs, o.window),
	}
}

// Publish cuts the channel's next segment from one payload per rung and
// pushes the updated playlist to every subscriber.
func (o *Origin) Publish(channel string, payloads [][]byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch := o.channels[channel]
	if ch == nil {
		return
	}
	ch.seg.Push(o.clock.Now(), payloads)
	o.tel.SegsPublished.Add(int64(len(payloads)))
	ch.raw = ch.seg.Playlist().Encode()
	ch.subs = fanOut(ch.subs, channel, ch.raw, o.tel, &o.egress)
}

// fanOut sends one playlist message, shared and only read, to every subscriber,
// adds the bytes sent to *egress and returns those whose send did not fail.
func fanOut(subs []transport.Conn, channel string, raw []byte, tel *Telemetry, egress *int64) []transport.Conn {
	m := &wire.Message{Type: wire.MsgPlaylist, Channel: channel, Data: raw}
	size, live := int64(m.WireSize()), subs[:0]
	for _, c := range subs {
		if c.Send(m) == nil {
			*egress += size
			tel.PlaylistPushes.Add(1)
			live = append(live, c)
		}
	}
	clear(subs[len(live):])
	return live
}

// Handle processes one message from a subscriber connection.
func (o *Origin) Handle(c transport.Conn, m *wire.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch := o.channels[m.Channel]
	if ch == nil {
		return
	}
	switch m.Type {
	case wire.MsgSubscribe:
		for _, s := range ch.subs {
			if s == c {
				return
			}
		}
		ch.subs = append(ch.subs, c)
		// Hand the newcomer the current window immediately (it may be
		// resuming: the resume index in m.FrameID needs no special handling
		// here, since playlists are full-window snapshots and segment
		// fetches are pull).
		if ch.raw != nil {
			pm := &wire.Message{Type: wire.MsgPlaylist, Channel: m.Channel, Data: ch.raw}
			if c.Send(pm) == nil {
				o.egress += int64(pm.WireSize())
				o.tel.PlaylistPushes.Add(1)
			}
		}
	case wire.MsgSegmentReq:
		s := ch.seg.Segment(m.FrameID, m.Rung)
		if s == nil {
			return // left the window (or bad rung): requester times out and skips ahead
		}
		sm := &wire.Message{
			Type: wire.MsgSegment, Channel: m.Channel,
			FrameID: s.Index, Rung: s.Rung, SegID: s.ID,
			SegDurUS: s.Duration.Microseconds(),
			SentAtUS: o.clock.Now().Microseconds(),
			Data:     s.Data,
		}
		if c.Send(sm) == nil {
			o.egress += int64(sm.WireSize())
			o.tel.SegsSent.Add(1)
		}
	case wire.MsgBye:
		o.drop(ch, c)
	default:
		// Unknown or unrelated types: tolerated and ignored (wire contract).
	}
}

// RemoveConn evicts a dead subscriber connection from every channel (the
// real-process Recv loop calls this when the connection errors).
func (o *Origin) RemoveConn(c transport.Conn) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ch := range o.channels {
		o.drop(ch, c)
	}
}

// drop removes one subscriber. Callers hold o.mu.
func (o *Origin) drop(ch *originChannel, c transport.Conn) {
	if i := slices.Index(ch.subs, c); i >= 0 {
		ch.subs = slices.Delete(ch.subs, i, i+1) // clears the vacated tail slot
	}
}

// Playlist returns a copy of a channel's current playlist (nil if the
// channel is unknown). Test and status surface.
func (o *Origin) Playlist(channel string) *Playlist {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch := o.channels[channel]
	if ch == nil {
		return nil
	}
	p := *ch.seg.Playlist()
	p.Segments = append([]SegmentRef(nil), p.Segments...)
	return &p
}

// EgressBytes reports the total bytes this origin has sent (the number the
// relay tree exists to shrink).
func (o *Origin) EgressBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.egress
}

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
	node
	window   int
	channels map[string]*originChannel
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
		node:     node{clock: clock, tel: tel},
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
	ch.subs = o.fanOut(ch.subs, channel, ch.raw)
}

// node is what Origin and Relay share: the lock over their state, the clock
// and telemetry they send by, and the bytes they have sent. Its send
// helpers are called with mu held.
type node struct {
	mu     sync.Mutex
	clock  Clock
	tel    *Telemetry
	egress int64
}

// EgressBytes reports the total bytes this origin or relay has sent (at the
// origin, the number the relay tree exists to shrink).
func (n *node) EgressBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.egress
}

// fanOut sends one playlist message, shared and only read, to every
// subscriber and returns those whose send did not fail.
func (n *node) fanOut(subs []transport.Conn, channel string, raw []byte) []transport.Conn {
	m := &wire.Message{Type: wire.MsgPlaylist, Channel: channel, Data: raw}
	size, live := int64(m.WireSize()), subs[:0]
	for _, c := range subs {
		if c.Send(m) == nil {
			n.egress += size
			n.tel.PlaylistPushes.Add(1)
			live = append(live, c)
		}
	}
	clear(subs[len(live):])
	return live
}

// subscribe adds c to subs unless it is there already and hands the
// newcomer the last playlist pushed (raw; nil before the first) at once.
// A subscriber may be resuming: the resume index in its MsgSubscribe needs
// no handling, since playlists are full-window snapshots and segment
// fetches are pull.
func (n *node) subscribe(subs []transport.Conn, c transport.Conn, channel string, raw []byte) []transport.Conn {
	if slices.Contains(subs, c) {
		return subs
	}
	subs = append(subs, c)
	if raw != nil {
		m := &wire.Message{Type: wire.MsgPlaylist, Channel: channel, Data: raw}
		if c.Send(m) == nil {
			n.egress += int64(m.WireSize())
			n.tel.PlaylistPushes.Add(1)
		}
	}
	return subs
}

// without returns conns less c, clearing the vacated tail slot.
func without(conns []transport.Conn, c transport.Conn) []transport.Conn {
	return slices.DeleteFunc(conns, func(x transport.Conn) bool { return x == c })
}

// sendSegment answers a segment request with s.
func (n *node) sendSegment(c transport.Conn, s *Segment) {
	m := &wire.Message{
		Type: wire.MsgSegment, Channel: s.Channel,
		FrameID: s.Index, Rung: s.Rung, SegID: s.ID,
		SegDurUS: s.Duration.Microseconds(),
		SentAtUS: n.clock.Now().Microseconds(),
		Data:     s.Data,
	}
	if c.Send(m) == nil {
		n.egress += int64(m.WireSize())
		n.tel.SegsSent.Add(1)
	}
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
		ch.subs = o.subscribe(ch.subs, c, m.Channel, ch.raw)
	case wire.MsgSegmentReq:
		s := ch.seg.Segment(m.FrameID, m.Rung)
		if s == nil {
			return // left the window (or bad rung): requester times out and skips ahead
		}
		o.sendSegment(c, s)
	case wire.MsgBye:
		ch.subs = without(ch.subs, c)
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
		ch.subs = without(ch.subs, c)
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

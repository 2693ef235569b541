package edge

import (
	"slices"

	"livenas/internal/transport"
	"livenas/internal/wire"
)

// Relay is one interior node of the distribution tree: it subscribes to an
// upstream origin (or another relay — the tree composes, the edge
// experiment runs it two levels deep), forwards each playlist push
// downstream verbatim, and serves segments from a pull-through cache. A
// miss forwards one request upstream no matter how many downstream
// subscribers are waiting (request coalescing), which is where the
// origin-egress savings come from.
//
// Concurrency follows Origin: internal lock, event-driven entry points.
type Relay struct {
	node
	up       transport.Conn
	channels map[string]*relayChannel
}

type segKey struct{ index, rung int }

type relayChannel struct {
	raw []byte    // latest playlist bytes, forwarded verbatim downstream
	pl  *Playlist // decoded view of raw
	// Pull-through cache over the live window. Keys are evicted when a new
	// playlist shows their index fell out of the window.
	cache map[segKey]*Segment
	// Coalesced misses: downstream conns waiting per key, in arrival order.
	pending map[segKey][]transport.Conn
	subs    []transport.Conn // downstream subscribers, subscription order
}

// NewRelay creates a relay over its upstream connection. The relay sends
// MsgSubscribe upstream lazily, on the first downstream subscriber of each
// channel (or eagerly via Subscribe).
func NewRelay(clock Clock, up transport.Conn, tel *Telemetry) *Relay {
	return &Relay{
		node:     node{clock: clock, tel: tel},
		up:       up,
		channels: make(map[string]*relayChannel),
	}
}

// Subscribe joins a channel upstream before any downstream viewer asks —
// pre-warming the playlist path.
func (r *Relay) Subscribe(channel string) error {
	if !r.ensureChannel(channel) {
		return nil // already subscribed upstream
	}
	// up is immutable after NewRelay; the send must stay outside r.mu (it
	// can block on a real socket).
	return r.up.Send(&wire.Message{Type: wire.MsgSubscribe, Channel: channel})
}

// ensureChannel creates the channel state on first interest, reporting
// whether this call created it (and so owes the upstream subscribe).
func (r *Relay) ensureChannel(channel string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.channels[channel]; ok {
		return false
	}
	r.channels[channel] = newRelayChannel()
	return true
}

func newRelayChannel() *relayChannel {
	return &relayChannel{
		cache:   make(map[segKey]*Segment),
		pending: make(map[segKey][]transport.Conn),
	}
}

// HandleUpstream processes one message from the upstream connection.
func (r *Relay) HandleUpstream(m *wire.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.channels[m.Channel]
	if ch == nil {
		return
	}
	switch m.Type {
	case wire.MsgPlaylist:
		pl, err := DecodePlaylist(m.Data)
		if err != nil {
			return // malformed upstream: keep the previous window
		}
		ch.raw, ch.pl = m.Data, pl
		oldest := pl.Oldest()
		for k := range ch.cache {
			if k.index < oldest {
				delete(ch.cache, k)
			}
		}
		ch.subs = r.fanOut(ch.subs, m.Channel, ch.raw)
	case wire.MsgSegment:
		now := r.clock.Now()
		if m.SentAtUS > 0 {
			r.tel.HopLatency.Observe(float64(now.Microseconds()-m.SentAtUS) / 1000)
		}
		s := &Segment{
			Channel: m.Channel, Index: m.FrameID, Rung: m.Rung,
			Duration: durUS(m.SegDurUS), Data: m.Data, ID: m.SegID,
		}
		k := segKey{m.FrameID, m.Rung}
		if ch.pl == nil || s.Index >= ch.pl.Oldest() {
			ch.cache[k] = s
		}
		waiters := ch.pending[k]
		delete(ch.pending, k)
		for _, c := range waiters {
			r.sendSegment(c, s)
		}
	default:
		// Unknown or unrelated types: tolerated and ignored (wire contract).
	}
}

// HandleDownstream processes one message from a downstream connection
// (a viewer or a deeper relay — the protocol is the same).
func (r *Relay) HandleDownstream(c transport.Conn, m *wire.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m.Type {
	case wire.MsgSubscribe:
		ch := r.channels[m.Channel]
		if ch == nil {
			// First interest in this channel: subscribe upstream too.
			ch = newRelayChannel()
			r.channels[m.Channel] = ch
			r.up.Send(&wire.Message{Type: wire.MsgSubscribe, Channel: m.Channel})
		}
		ch.subs = r.subscribe(ch.subs, c, m.Channel, ch.raw)
	case wire.MsgSegmentReq:
		ch := r.channels[m.Channel]
		if ch == nil {
			return
		}
		k := segKey{m.FrameID, m.Rung}
		if s, ok := ch.cache[k]; ok {
			r.sendSegment(c, s)
			return
		}
		if slices.Contains(ch.pending[k], c) {
			// The same conn asking again means its first wait timed out:
			// the upstream request (or reply) was probably lost. Re-issue
			// it rather than waiting forever on the old one.
			r.up.Send(&wire.Message{Type: wire.MsgSegmentReq, Channel: m.Channel, FrameID: m.FrameID, Rung: m.Rung})
			return
		}
		first := len(ch.pending[k]) == 0
		ch.pending[k] = append(ch.pending[k], c)
		if first {
			r.up.Send(&wire.Message{Type: wire.MsgSegmentReq, Channel: m.Channel, FrameID: m.FrameID, Rung: m.Rung})
		}
	case wire.MsgBye:
		r.dropLocked(c)
	default:
		// Unknown or unrelated types: tolerated and ignored (wire contract).
	}
}

// RemoveConn evicts a dead downstream connection everywhere.
func (r *Relay) RemoveConn(c transport.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropLocked(c)
}

// dropLocked removes c from every channel's subscriber and waiter lists.
// Each removal is independent of the others, so the walk's map order does
// not reach the result. Callers hold r.mu.
func (r *Relay) dropLocked(c transport.Conn) {
	for _, ch := range r.channels {
		ch.subs = without(ch.subs, c)
		for k, ws := range ch.pending {
			if ws = without(ws, c); len(ws) > 0 {
				ch.pending[k] = ws
			} else {
				delete(ch.pending, k)
			}
		}
	}
}

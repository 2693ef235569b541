package transport

import (
	"fmt"
	"time"

	"livenas/internal/netem"
	"livenas/internal/sim"
	"livenas/internal/trace"
	"livenas/internal/wire"
)

// SimLinkConfig shapes one direction of a simulated connection, in netem
// terms: a serialisation rate, a propagation delay, and a bounded
// outbound queue. A full queue drops the *oldest* waiting message — the
// right policy for live distribution, where a stale segment is worthless
// but the newest one is not (the edge relay's per-viewer backpressure is
// exactly this queue).
type SimLinkConfig struct {
	Kbps       float64       // serialisation rate; <= 0 means infinitely fast, below 1 is netem's 1 kbps floor
	Delay      time.Duration // one-way propagation delay
	QueueBytes int           // outbound queue bound; <= 0 means unbounded
}

// link builds the drop-oldest netem link that carries this direction to the
// endpoint to.
func (cfg SimLinkConfig) link(s *sim.Simulator, to *SimConn) *netem.Link {
	var tr *trace.Trace // infinitely fast
	if cfg.Kbps > 0 {
		tr = &trace.Trace{Name: "const", DT: time.Second, Kbps: []float64{cfg.Kbps}}
	}
	return netem.NewDropOldestLink(s, tr, cfg.Delay, cfg.QueueBytes, func(p netem.Packet) {
		to.deliver(p.Payload.(*wire.Message))
	})
}

// SimConn is the virtual-clock Conn: one endpoint of a pair of drop-oldest
// netem links between two peers on the same simulator, one per direction.
// Sends serialise at the configured rate, propagate after the configured
// delay, and deliver to the peer's OnMessage handler (or its Recv inbox) in
// FIFO order. Like the simulator itself it is single-threaded: all use must
// happen on the simulation goroutine.
//
// Recv drives the simulator forward until a message arrives, the timeout
// elapses, or nothing pending can ever deliver one — so protocol code
// written blocking-style against Conn runs unmodified on the virtual
// clock. It must only be called from outside event callbacks (it steps
// the event loop; re-entry would corrupt it).
type SimConn struct {
	s     *sim.Simulator
	peer  *SimConn
	out   *netem.Link   // this endpoint to its peer
	delay time.Duration // out's propagation delay, which a FIN also takes

	inbox        []*wire.Message
	handler      func(*wire.Message)
	closed       bool // this side closed
	remoteClosed bool // peer's close propagated here
	timeout      time.Duration
}

// NewSimConnPair creates a connected pair of simulated endpoints on s.
// ab shapes the a→b direction, ba the b→a direction.
func NewSimConnPair(s *sim.Simulator, ab, ba SimLinkConfig) (a, b *SimConn) {
	a = &SimConn{s: s, delay: ab.Delay}
	b = &SimConn{s: s, delay: ba.Delay}
	a.peer, b.peer = b, a
	a.out, b.out = ab.link(s, b), ba.link(s, a)
	return a, b
}

// Send queues m for delivery to the peer. It never blocks: the message
// serialises onto the virtual wire at the link rate, and if the outbound
// queue bound is exceeded the oldest waiting message is dropped (counted
// in Dropped).
func (c *SimConn) Send(m *wire.Message) error {
	if c.closed || c.remoteClosed {
		return ErrClosed
	}
	c.out.Send(netem.Packet{Size: m.WireSize(), Payload: m})
	return nil
}

// deliver lands one message at this endpoint.
func (c *SimConn) deliver(m *wire.Message) {
	if c.closed {
		return
	}
	if c.handler != nil {
		c.handler(m)
		return
	}
	c.inbox = append(c.inbox, m)
}

// OnMessage switches this endpoint to handler-driven delivery: fn runs at
// each message's virtual arrival time, on the simulation goroutine. Any
// messages already waiting in the inbox are handed to fn immediately.
func (c *SimConn) OnMessage(fn func(*wire.Message)) {
	c.handler = fn
	for len(c.inbox) > 0 && c.handler != nil {
		m := c.inbox[0]
		c.inbox[0] = nil
		c.inbox = c.inbox[1:]
		fn(m)
	}
}

// Recv returns the next delivered message, stepping the simulator as far
// as needed (and no further). See the type comment for the contract.
func (c *SimConn) Recv() (*wire.Message, error) {
	var limit time.Duration
	if c.timeout > 0 {
		limit = c.s.Now() + c.timeout
	}
	for {
		if len(c.inbox) > 0 {
			m := c.inbox[0]
			c.inbox[0] = nil
			c.inbox = c.inbox[1:]
			return m, nil
		}
		if c.closed || c.remoteClosed {
			return nil, ErrClosed
		}
		next, ok := c.s.Next()
		if !ok {
			return nil, fmt.Errorf("%w: simulator drained with no message in flight", ErrClosed)
		}
		if c.timeout > 0 && next > limit {
			c.s.RunUntil(limit) // nothing eligible: just advance the clock
			return nil, ErrRecvTimeout
		}
		c.s.RunUntil(next) // run every event at the next timestamp
	}
}

// Close tears this endpoint down. Messages still queued for the peer are
// discarded (the one on the wire and those propagating still arrive); the
// peer learns of the close after one propagation delay (like a FIN) and
// its pending Recv fails once its inbox drains.
func (c *SimConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.out.Close()
	peer := c.peer
	c.s.After(c.delay, func() { peer.remoteClosed = true })
	return nil
}

// SetRecvTimeout bounds each subsequent Recv in virtual time.
func (c *SimConn) SetRecvTimeout(d time.Duration) { c.timeout = d }

// Dropped reports how many messages the drop-oldest queue bound evicted.
func (c *SimConn) Dropped() int { return c.out.Stats().Dropped }

var (
	_ Conn = (*SimConn)(nil)
	_ Conn = (*NetConn)(nil)
)

package transport

import (
	"fmt"
	"time"

	"livenas/internal/sim"
	"livenas/internal/wire"
)

// SimLinkConfig shapes one direction of a simulated connection, in netem
// terms: a serialisation rate, a propagation delay, and a bounded
// outbound queue. A full queue drops the *oldest* waiting message — the
// right policy for live distribution, where a stale segment is worthless
// but the newest one is not (the edge relay's per-viewer backpressure is
// exactly this queue).
type SimLinkConfig struct {
	Kbps       float64       // serialisation rate; <= 0 means infinitely fast
	Delay      time.Duration // one-way propagation delay
	QueueBytes int           // outbound queue bound; <= 0 means unbounded
}

// SimConn is the virtual-clock Conn: one endpoint of a bidirectional
// netem-shaped link between two peers on the same simulator. Sends
// serialise at the configured rate, propagate after the configured delay,
// and deliver to the peer's OnMessage handler (or its Recv inbox) in FIFO
// order. Like the simulator itself it is single-threaded: all use must
// happen on the simulation goroutine.
//
// Recv drives the simulator forward until a message arrives, the timeout
// elapses, or nothing pending can ever deliver one — so protocol code
// written blocking-style against Conn runs unmodified on the virtual
// clock. It must only be called from outside event callbacks (it steps
// the event loop; re-entry would corrupt it).
type SimConn struct {
	s    *sim.Simulator
	peer *SimConn
	cfg  SimLinkConfig

	queue   []sized // waiting for serialisation (head next)
	queued  int     // bytes across queue
	serving bool    // one message is on the wire
	dropped int     // drop-oldest evictions

	inbox        []*wire.Message
	handler      func(*wire.Message)
	closed       bool // this side closed
	remoteClosed bool // peer's close propagated here
	timeout      time.Duration
}

// sized is a queued message with its WireSize, computed once in Send.
type sized struct {
	m    *wire.Message
	size int
}

// popQueue removes the queue head, clearing its slot so the backing array
// does not keep the message (and its payload) alive.
func (c *SimConn) popQueue() (m *wire.Message, size int) {
	q := c.queue[0]
	c.queue[0] = sized{}
	c.queue = c.queue[1:]
	c.queued -= q.size
	return q.m, q.size
}

// NewSimConnPair creates a connected pair of simulated endpoints on s.
// ab shapes the a→b direction, ba the b→a direction.
func NewSimConnPair(s *sim.Simulator, ab, ba SimLinkConfig) (a, b *SimConn) {
	a = &SimConn{s: s, cfg: ab}
	b = &SimConn{s: s, cfg: ba}
	a.peer, b.peer = b, a
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
	size := m.WireSize()
	c.queue = append(c.queue, sized{m, size})
	c.queued += size
	for c.cfg.QueueBytes > 0 && c.queued > c.cfg.QueueBytes && len(c.queue) > 1 {
		c.popQueue()
		c.dropped++
	}
	c.arm()
	return nil
}

// arm starts serialising the queue head if the wire is idle.
func (c *SimConn) arm() {
	if c.serving || len(c.queue) == 0 || c.closed {
		return
	}
	m, size := c.popQueue()
	c.serving = true
	tx := time.Duration(0)
	if c.cfg.Kbps > 0 {
		tx = time.Duration(float64(size*8) / (c.cfg.Kbps * 1000) * float64(time.Second))
	}
	c.s.After(tx, func() {
		c.serving = false
		peer := c.peer
		c.s.After(c.cfg.Delay, func() { peer.deliver(m) })
		c.arm()
	})
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

// Close tears this endpoint down. In-flight deliveries to the peer are
// abandoned; the peer learns of the close after one propagation delay
// (like a FIN) and its pending Recv fails once its inbox drains.
func (c *SimConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.queue, c.queued = nil, 0
	peer := c.peer
	c.s.After(c.cfg.Delay, func() { peer.remoteClosed = true })
	return nil
}

// SetRecvTimeout bounds each subsequent Recv in virtual time.
func (c *SimConn) SetRecvTimeout(d time.Duration) { c.timeout = d }

// QueuedBytes reports bytes waiting for serialisation.
func (c *SimConn) QueuedBytes() int { return c.queued }

// Dropped reports how many messages the drop-oldest queue bound evicted.
func (c *SimConn) Dropped() int { return c.dropped }

// Closed reports whether either side has closed the connection (the
// remote side's close counts only once its FIN has propagated here).
func (c *SimConn) Closed() bool { return c.closed || c.remoteClosed }

var (
	_ Conn = (*SimConn)(nil)
	_ Conn = (*NetConn)(nil)
)

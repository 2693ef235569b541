package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"livenas/internal/sim"
	"livenas/internal/wire"
)

// refSimConn is the seed SimConn, with its own drop-oldest queue, serving
// flag and arm: the oracle for TestSimConnMatchesRef.
type refSimConn struct {
	s    *sim.Simulator
	peer *refSimConn
	cfg  SimLinkConfig

	queue   []sized
	queued  int
	serving bool
	dropped int

	discarded int // queued messages a Close threw away (coverage only)

	inbox        []*wire.Message
	handler      func(*wire.Message)
	closed       bool
	remoteClosed bool
	timeout      time.Duration
}

type sized struct {
	m    *wire.Message
	size int
}

func (c *refSimConn) popQueue() (m *wire.Message, size int) {
	q := c.queue[0]
	c.queue[0] = sized{}
	c.queue = c.queue[1:]
	c.queued -= q.size
	return q.m, q.size
}

func newRefSimConnPair(s *sim.Simulator, ab, ba SimLinkConfig) (a, b *refSimConn) {
	a = &refSimConn{s: s, cfg: ab}
	b = &refSimConn{s: s, cfg: ba}
	a.peer, b.peer = b, a
	return a, b
}

func (c *refSimConn) Send(m *wire.Message) error {
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

func (c *refSimConn) arm() {
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

func (c *refSimConn) deliver(m *wire.Message) {
	if c.closed {
		return
	}
	if c.handler != nil {
		c.handler(m)
		return
	}
	c.inbox = append(c.inbox, m)
}

func (c *refSimConn) OnMessage(fn func(*wire.Message)) {
	c.handler = fn
	for len(c.inbox) > 0 && c.handler != nil {
		m := c.inbox[0]
		c.inbox[0] = nil
		c.inbox = c.inbox[1:]
		fn(m)
	}
}

func (c *refSimConn) Recv() (*wire.Message, error) {
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
			c.s.RunUntil(limit)
			return nil, ErrRecvTimeout
		}
		c.s.RunUntil(next)
	}
}

func (c *refSimConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.discarded += len(c.queue)
	c.queue, c.queued = nil, 0
	peer := c.peer
	c.s.After(c.cfg.Delay, func() { peer.remoteClosed = true })
	return nil
}

func (c *refSimConn) SetRecvTimeout(d time.Duration) { c.timeout = d }
func (c *refSimConn) Dropped() int                   { return c.dropped }

// simEndpoint is what a schedule drives: SimConn or its oracle.
type simEndpoint interface {
	Conn
	OnMessage(func(*wire.Message))
	Dropped() int
}

// connEvent is one observation: a delivery, a Send's result or a Recv's.
type connEvent struct {
	kind    string
	side    int
	frame   int
	at      time.Duration
	errored bool
}

// connSchedule is one seeded two-way workload fixed in advance: link shapes,
// timed sends from either side (random sizes, so the queue bound bites), at
// most one Close per side and the instant each side installs its handler.
// Every third message a handler sees makes its sender follow up, so sends
// also come from inside the links' own events. A side that never installs
// a handler is drained with Recv at the end.
type connSchedule struct {
	cfg     [2]SimLinkConfig
	sends   []connSend
	closeAt [2]time.Duration // < 0: never
	handler [2]time.Duration // < 0: never; drained with Recv
	timeout time.Duration
}

type connSend struct {
	at   time.Duration
	side int
	size int
}

func newConnSchedule(seed int64) connSchedule {
	r := rand.New(rand.NewSource(seed))
	ms := func(n int) time.Duration { return time.Duration(r.Intn(n)) * time.Millisecond }
	var sc connSchedule
	for i := range sc.cfg {
		sc.cfg[i] = SimLinkConfig{
			Kbps:       []float64{0, 64, 100, 1000, 1 + 5000*r.Float64()}[r.Intn(5)],
			Delay:      []time.Duration{0, 5 * time.Millisecond, ms(50)}[r.Intn(3)],
			QueueBytes: []int{0, 500, 1000 + r.Intn(4000)}[r.Intn(3)], // 0: unbounded
		}
		sc.closeAt[i], sc.handler[i] = -1, -1
		if r.Intn(3) == 0 {
			sc.closeAt[i] = ms(300)
		}
		if r.Intn(3) != 0 {
			sc.handler[i] = []time.Duration{0, ms(200)}[r.Intn(2)]
		}
	}
	sc.timeout = ms(100)
	var at time.Duration
	side := 0
	for i, n := 0, 1+r.Intn(30); i < n; i++ {
		if r.Intn(2) == 0 { // else a burst: same instant and side as the last send
			at, side = ms(300), r.Intn(2)
		}
		sc.sends = append(sc.sends, connSend{at, side, r.Intn(1200)})
	}
	return sc
}

func (sc connSchedule) run(s *sim.Simulator, a, b simEndpoint) (log []connEvent, dropped [2]int) {
	ends := [2]simEndpoint{a, b}
	send := func(side, frame, size int) {
		err := ends[side].Send(&wire.Message{Type: wire.MsgVideo, FrameID: frame, Data: make([]byte, size)})
		log = append(log, connEvent{"send", side, frame, s.Now(), err != nil})
	}
	for side, c := range ends {
		if sc.handler[side] >= 0 {
			s.At(sc.handler[side], func() {
				c.OnMessage(func(m *wire.Message) {
					log = append(log, connEvent{"deliver", side, m.FrameID, s.Now(), false})
					if m.FrameID < 1000 && m.FrameID%3 == 0 { // the sender follows up
						send(1-side, m.FrameID+1000, m.FrameID*37%1200)
					}
				})
			})
		}
		if sc.closeAt[side] >= 0 {
			s.At(sc.closeAt[side], func() { c.Close() })
		}
	}
	for i, cs := range sc.sends {
		s.At(cs.at, func() { send(cs.side, i, cs.size) })
	}
	s.RunUntil(200 * time.Millisecond) // every handler is installed by now
	for side, c := range ends {
		if sc.handler[side] >= 0 {
			continue
		}
		c.SetRecvTimeout(sc.timeout)
		for {
			m, err := c.Recv()
			if err != nil {
				log = append(log, connEvent{"recv", side, -1, s.Now(), !errors.Is(err, ErrRecvTimeout)})
				break
			}
			log = append(log, connEvent{"recv", side, m.FrameID, s.Now(), false})
		}
	}
	s.Run()
	return log, [2]int{a.Dropped(), b.Dropped()}
}

// TestSimConnMatchesRef: over 10^4 seeded two-way schedules the SimConn
// built on two netem links delivers, drops, times out and closes exactly
// as the seed SimConn's own queue did — including infinitely fast links
// (Kbps 0), unbounded queues and Close with messages still queued.
func TestSimConnMatchesRef(t *testing.T) {
	var dropped, discarded int
	for seed := int64(0); seed < 10000; seed++ {
		sc := newConnSchedule(seed)
		s := sim.New()
		a, b := NewSimConnPair(s, sc.cfg[0], sc.cfg[1])
		got, gotDropped := sc.run(s, a, b)

		rs := sim.New()
		ra, rb := newRefSimConnPair(rs, sc.cfg[0], sc.cfg[1])
		want, wantDropped := sc.run(rs, ra, rb)

		if len(got) != len(want) || gotDropped != wantDropped || s.Now() != rs.Now() {
			t.Fatalf("seed %d: %d events, dropped %v, clock %v; oracle %d, %v, %v",
				seed, len(got), gotDropped, s.Now(), len(want), wantDropped, rs.Now())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, event %d: %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
		dropped += wantDropped[0] + wantDropped[1]
		discarded += ra.discarded + rb.discarded
	}
	t.Logf("drop-oldest evictions %d, messages discarded by Close %d", dropped, discarded)
	if dropped < 1000 || discarded < 1000 {
		t.Fatal("the schedules no longer reach every corner case they are meant to")
	}
}

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livenas/internal/sim"
	"livenas/internal/wire"
)

func simPair(kbps float64, delay time.Duration, queueBytes int) (*sim.Simulator, *SimConn, *SimConn) {
	s := sim.New()
	cfg := SimLinkConfig{Kbps: kbps, Delay: delay, QueueBytes: queueBytes}
	a, b := NewSimConnPair(s, cfg, cfg)
	return s, a, b
}

// padTo gives m the payload that makes its frame exactly size bytes.
func padTo(m *wire.Message, size int) *wire.Message {
	m.Data = make([]byte, size)
	m.Data = m.Data[:2*size-m.WireSize()]
	if m.WireSize() != size {
		panic("padTo: the payload's length prefix changed width")
	}
	return m
}

// SimConn's link timing and drop-oldest eviction are netem.Link's (pinned
// there by TestLinkServiceTimes, TestLinkDropOldest); the three tests below
// check that SimConn wires its messages through those links end to end.

// TestSimConnDelivery pins the netem shape: a message's arrival time is
// its serialisation time at the link rate plus the propagation delay.
func TestSimConnDelivery(t *testing.T) {
	s, a, b := simPair(100 /*kbps*/, 20*time.Millisecond, 0)
	m := padTo(&wire.Message{Type: wire.MsgSegment}, 1000)
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("wrong message delivered")
	}
	// 1000 bytes at 100 kbps = 80 ms serialisation, + 20 ms propagation.
	if want := 100 * time.Millisecond; s.Now() != want {
		t.Fatalf("delivered at %v, want %v", s.Now(), want)
	}
}

// TestSimConnFIFO checks ordered delivery under back-to-back sends and
// that serialisation of the second message waits for the first.
func TestSimConnFIFO(t *testing.T) {
	s, a, b := simPair(100, 10*time.Millisecond, 0)
	for i := 0; i < 3; i++ {
		if err := a.Send(padTo(&wire.Message{Type: wire.MsgVideo, FrameID: i}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	var at []time.Duration
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.FrameID != i {
			t.Fatalf("out of order: got frame %d at position %d", m.FrameID, i)
		}
		at = append(at, s.Now())
	}
	// Serialisation is 80 ms per message; arrivals 90, 170, 250 ms.
	want := []time.Duration{90 * time.Millisecond, 170 * time.Millisecond, 250 * time.Millisecond}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, at[i], want[i])
		}
	}
}

// TestSimConnDropOldest fills the bounded queue and checks the oldest
// waiting message goes first while the newest survives.
func TestSimConnDropOldest(t *testing.T) {
	_, a, b := simPair(100, 0, 2000)
	// First message starts serialising immediately (not part of the queue);
	// the next three overflow the 2000-byte bound by one.
	for i := 0; i < 4; i++ {
		if err := a.Send(padTo(&wire.Message{Type: wire.MsgVideo, FrameID: i}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped())
	}
	var got []int
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.FrameID)
	}
	if got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [0 2 3] (frame 1 was the oldest queued)", got)
	}
}

// TestSimConnRecvTimeout checks the virtual-clock receive timeout: the
// clock advances exactly to the deadline and no further.
func TestSimConnRecvTimeout(t *testing.T) {
	s, a, b := simPair(0, 50*time.Millisecond, 0)
	b.SetRecvTimeout(30 * time.Millisecond)
	if err := a.Send(&wire.Message{Type: wire.MsgBye}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !IsTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v after timeout, want 30ms", s.Now())
	}
	b.SetRecvTimeout(0)
	if _, err := b.Recv(); err != nil {
		t.Fatalf("message should arrive after timeout cleared: %v", err)
	}
	if s.Now() != 50*time.Millisecond {
		t.Fatalf("clock at %v, want 50ms", s.Now())
	}
}

// TestSimConnClose checks both directions: the closer errors immediately,
// the peer after the FIN propagates.
func TestSimConnClose(t *testing.T) {
	_, a, b := simPair(0, 10*time.Millisecond, 0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&wire.Message{Type: wire.MsgBye}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed conn: %v", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv from closed peer: %v", err)
	}
}

// TestSimConnOnMessage checks handler-driven delivery, including the
// drain of messages that arrived before the handler was installed.
func TestSimConnOnMessage(t *testing.T) {
	s, a, b := simPair(0, 5*time.Millisecond, 0)
	a.Send(&wire.Message{Type: wire.MsgVideo, FrameID: 0})
	s.RunUntil(10 * time.Millisecond) // lands in the inbox pre-handler
	var got []int
	b.OnMessage(func(m *wire.Message) { got = append(got, m.FrameID) })
	a.Send(&wire.Message{Type: wire.MsgVideo, FrameID: 1})
	s.RunUntil(20 * time.Millisecond)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("handler saw %v, want [0 1]", got)
	}
}

// TestNetConnRoundTrip runs the framed protocol over an in-memory
// net.Pipe: the real-socket implementation minus the kernel.
func TestNetConnRoundTrip(t *testing.T) {
	pa, pb := net.Pipe()
	a, b := NewNetConn(pa), NewNetConn(pb)
	defer a.Close()
	defer b.Close()

	done := make(chan error, 1)
	go func() {
		done <- a.Send(&wire.Message{Type: wire.MsgSegment, FrameID: 4, Rung: 1, SegID: "abcd", Data: []byte{1, 2, 3}})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgSegment || m.FrameID != 4 || m.SegID != "abcd" {
		t.Fatalf("got %+v", m)
	}

	b.SetRecvTimeout(20 * time.Millisecond)
	if _, err := b.Recv(); !IsTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}

	a.Close()
	b.SetRecvTimeout(0)
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv after peer close must error")
	}
}

// tcpPair returns the two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (client, server *NetConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	c := <-accepted
	if c == nil {
		t.FailNow()
	}
	server = NewNetConn(c)
	t.Cleanup(func() { server.Close() })
	return client, server
}

// TestNetConnConcurrentSendersTCP: four goroutines share one NetConn over a
// real socket, alternating 256-byte messages (one write) and 1 MB messages
// (header and payload as one writev). Every frame must arrive intact and
// each sender's frames in the order it sent them: wmu covers the whole
// frame, so header and payload of different frames never interleave.
func TestNetConnConcurrentSendersTCP(t *testing.T) {
	const senders, perSender = 4, 6
	a, b := tcpPair(t)
	payload := func(sender, seq int) []byte {
		n := 256
		if seq%2 == 1 {
			n = 1 << 20
		}
		return bytes.Repeat([]byte{byte(16*sender + seq)}, n)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				if err := a.Send(&wire.Message{Type: wire.MsgSegment, Channel: "tcp", X: s, FrameID: seq, Data: payload(s, seq)}); err != nil {
					t.Errorf("sender %d seq %d: %v", s, seq, err)
					return
				}
			}
		}(s)
	}
	b.SetRecvTimeout(20 * time.Second)
	next := make([]int, senders)
	for i := 0; i < senders*perSender; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Type != wire.MsgSegment || m.Channel != "tcp" || m.X < 0 || m.X >= senders {
			t.Fatalf("frame %d: garbled header %+v", i, m)
		}
		if m.FrameID != next[m.X] {
			t.Fatalf("sender %d: got seq %d, want %d", m.X, m.FrameID, next[m.X])
		}
		next[m.X]++
		if !bytes.Equal(m.Data, payload(m.X, m.FrameID)) {
			t.Fatalf("sender %d seq %d: payload corrupted", m.X, m.FrameID)
		}
	}
	wg.Wait()
}

// TestNetConnOversizedSendWritesNothing: a message over the frame limit is
// an error to its sender and invisible to the peer.
func TestNetConnOversizedSendWritesNothing(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send(&wire.Message{Type: wire.MsgSegment, Data: make([]byte, 16<<20)}); err == nil {
		t.Fatal("16 MB payload plus header is over the frame limit and must be refused")
	}
	if err := a.Send(&wire.Message{Type: wire.MsgBye, Reason: "first on the wire"}); err != nil {
		t.Fatal(err)
	}
	b.SetRecvTimeout(20 * time.Second)
	m, err := b.Recv()
	if err != nil || m.Type != wire.MsgBye || m.Reason != "first on the wire" {
		t.Fatalf("peer saw %+v, %v; the refused message left bytes on the socket", m, err)
	}
}

// deadlineCounter counts SetReadDeadline calls on the wrapped net.Conn.
type deadlineCounter struct {
	net.Conn
	calls atomic.Int64
}

func (d *deadlineCounter) SetReadDeadline(t time.Time) error {
	d.calls.Add(1)
	return d.Conn.SetReadDeadline(t)
}

// TestNetConnRecvDeadlineOnlyWhenNeeded: Recv arms the read deadline per
// message while a timeout is set, clears it once after the timeout goes,
// and otherwise leaves the socket alone.
func TestNetConnRecvDeadlineOnlyWhenNeeded(t *testing.T) {
	pa, pb := net.Pipe()
	dc := &deadlineCounter{Conn: pb}
	a, b := NewNetConn(pa), NewNetConn(dc)
	defer a.Close()
	defer b.Close()
	go func() {
		for i := 0; i < 6; i++ {
			if err := a.Send(&wire.Message{Type: wire.MsgVideo, FrameID: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	recv := func(n int, wantCalls int64, when string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if got := dc.calls.Load(); got != wantCalls {
			t.Fatalf("%s: %d SetReadDeadline calls so far, want %d", when, got, wantCalls)
		}
	}
	recv(2, 0, "no timeout ever set")
	b.SetRecvTimeout(5 * time.Second)
	recv(2, 2, "timeout set: armed per Recv")
	b.SetRecvTimeout(0)
	recv(2, 3, "timeout cleared: disarmed once")
}

// gateConn is a Conn whose Send blocks until released, recording what it
// was handed.
type gateConn struct {
	Conn
	release chan struct{}
	sent    chan *wire.Message
}

func (g *gateConn) Send(m *wire.Message) error {
	<-g.release
	g.sent <- m
	return nil
}
func (g *gateConn) Close() error { return nil }

// TestQueuedConnCloseJoinsWriter: Close stops and joins the writer
// goroutine, whether it idles on an empty queue or sits mid-Send on a slow
// peer. A Close that returned without the join would leave one writer
// running for every subscriber a relay ever served.
func TestQueuedConnCloseJoinsWriter(t *testing.T) {
	// As in nn's TestPoolCloseJoinsWorkers: the writer closes q.done a
	// beat before the scheduler retires it, so poll briefly for the count
	// to settle back to the level before the queue.
	settled := func(t *testing.T, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%d goroutines outlive Close (had %d before the queue)", got, before)
		}
	}
	newGate := func() *gateConn {
		return &gateConn{release: make(chan struct{}), sent: make(chan *wire.Message, 1)}
	}

	t.Run("idle", func(t *testing.T) {
		before := runtime.NumGoroutine()
		q := NewQueuedConn(newGate(), 0)
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-q.done:
		default:
			t.Fatal("Close returned before the writer exited")
		}
		settled(t, before)
	})

	t.Run("mid-send", func(t *testing.T) {
		before := runtime.NumGoroutine()
		g := newGate()
		q := NewQueuedConn(g, 0)
		if err := q.Send(&wire.Message{Type: wire.MsgSegment}); err != nil {
			t.Fatal(err)
		}
		// The writer pops the message and then blocks in g.Send.
		deadline := time.Now().Add(5 * time.Second)
		for {
			q.mu.Lock()
			waiting := len(q.queue) - q.head
			q.mu.Unlock()
			if waiting == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the writer never took the queued message")
			}
			time.Sleep(time.Millisecond)
		}
		closed := make(chan error, 1)
		go func() { closed <- q.Close() }()
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while the writer was still in Send", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(g.release)
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return once the writer's Send finished")
		}
		settled(t, before)
	})
}

// failConn is a Conn whose every Send fails with err.
type failConn struct {
	Conn
	err error
}

func (f failConn) Send(*wire.Message) error { return f.err }
func (f failConn) Close() error             { return nil }

// TestQueuedConnSendAfterFailure: a Send that returns early, on a closed
// connection or after the writer stored a send error, must leave q.mu
// unlocked. Every call runs behind a bounded wait, so a Send that returned
// holding the lock fails the test at the next call instead of hanging it.
func TestQueuedConnSendAfterFailure(t *testing.T) {
	within := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s: an earlier call left the lock held", what)
		}
	}
	msg := &wire.Message{Type: wire.MsgSegment}
	sendTwice := func(t *testing.T, q *QueuedConn, want error) {
		t.Helper()
		for i := 1; i <= 2; i++ {
			var err error
			within(t, fmt.Sprintf("Send %d", i), func() { err = q.Send(msg) })
			if !errors.Is(err, want) {
				t.Fatalf("Send %d = %v, want %v", i, err, want)
			}
		}
	}

	t.Run("closed", func(t *testing.T) {
		q := NewQueuedConn(&gateConn{release: make(chan struct{})}, 0)
		within(t, "Close", func() { _ = q.Close() })
		sendTwice(t, q, ErrClosed)
		within(t, "Dropped", func() { q.Dropped() })
	})

	t.Run("send error", func(t *testing.T) {
		boom := errors.New("connection reset by peer")
		q := NewQueuedConn(failConn{err: boom}, 0)
		within(t, "the first Send", func() { _ = q.Send(msg) })
		// The writer stores boom and then exits, closing q.done.
		within(t, "the writer's exit", func() { <-q.done })
		sendTwice(t, q, boom)
		within(t, "Close", func() { _ = q.Close() })
	})
}

// TestQueuedConnReleasesSentMessages: a slot a message has left (sent or
// dropped) must not keep pointing at it, and a queue that drains goes back
// to the start of its array instead of walking off the end of it.
func TestQueuedConnReleasesSentMessages(t *testing.T) {
	const burst = 8
	g := &gateConn{release: make(chan struct{}), sent: make(chan *wire.Message, burst)}
	msg := func(i int) *wire.Message {
		return &wire.Message{Type: wire.MsgSegment, FrameID: i, Data: make([]byte, 100)}
	}
	q := NewQueuedConn(g, 5*msg(burst).WireSize()) // room for five of them
	defer q.Close()
	slots := func() (live, stale, capacity int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		for i, m := range q.queue[:cap(q.queue)] {
			switch {
			case m == nil:
			case i >= q.head && i < len(q.queue):
				live++
			default:
				stale++
			}
		}
		return live, stale, cap(q.queue)
	}
	var capAfterFirst int
	for round := 0; round < 50; round++ {
		for i := 0; i < burst; i++ {
			if err := q.Send(msg(i)); err != nil {
				t.Fatal(err)
			}
		}
		if live, stale, _ := slots(); stale != 0 || live > 5 {
			t.Fatalf("round %d: %d live and %d stale messages reachable from the queue", round, live, stale)
		}
		// The writer holds at most one message it took before the burst
		// overflowed; release until the newest of the burst is out.
		for {
			g.release <- struct{}{}
			if m := <-g.sent; m.FrameID == burst-1 {
				break
			}
		}
		live, stale, capacity := slots()
		if live != 0 || stale != 0 {
			t.Fatalf("round %d: drained queue still reaches %d messages", round, live+stale)
		}
		if round == 0 {
			capAfterFirst = capacity
		} else if capacity != capAfterFirst {
			t.Fatalf("round %d: queue array went from %d to %d slots under a repeating load", round, capAfterFirst, capacity)
		}
	}
}

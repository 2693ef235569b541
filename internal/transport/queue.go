package transport

import (
	"sync"
	"time"

	"livenas/internal/wire"
)

// QueuedConn decouples Send from the socket: messages enter a bounded
// in-memory queue and a writer goroutine drains it, so an actor holding
// its lock never blocks on a slow peer. Over the bound the *oldest* queued
// message is dropped — the real-process twin of SimConn's drop-oldest
// outbound queue, and the per-viewer backpressure of cmd/livenas-edge: a
// viewer that cannot keep up loses stale segments, not the connection.
//
// Recv, Close and SetRecvTimeout pass through to the wrapped Conn. The
// writer goroutine exits on Close or on the first send error (after which
// Send returns that error).
type QueuedConn struct {
	inner Conn

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*wire.Message // queue[head:] is waiting; queue[:head] is nil
	head    int
	queued  int // bytes across queue[head:]
	bound   int // <= 0: unbounded
	dropped int64
	closed  bool
	err     error
	done    chan struct{} // closed when the writer goroutine exits
}

// NewQueuedConn wraps c with an asynchronous send queue bounded to
// queueBytes (<= 0 means unbounded: for control connections whose traffic
// is small and must not be dropped).
func NewQueuedConn(c Conn, queueBytes int) *QueuedConn {
	q := &QueuedConn{inner: c, bound: queueBytes, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.writer() //livenas:allow goroutine-leak joined by QueuedConn.Close via q.done, not by NewQueuedConn
	return q
}

func (q *QueuedConn) writer() {
	defer close(q.done)
	for {
		m, ok := q.next()
		if !ok {
			return
		}
		if err := q.inner.Send(m); err != nil {
			q.fail(err)
			return
		}
	}
}

// next blocks until a message is queued or the connection is done.
func (q *QueuedConn) next() (*wire.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.closed && q.err == nil {
		q.cond.Wait()
	}
	if q.closed || q.err != nil {
		q.discard()
		return nil, false
	}
	return q.pop(), true
}

// pop removes the oldest waiting message. It clears the slot, so a sent or
// dropped segment is collectable at once rather than when append next
// moves the array, and a queue that drains rewinds to the array's start,
// so a writer that keeps up reuses one small array for the connection's
// life.
func (q *QueuedConn) pop() *wire.Message {
	m := q.queue[q.head]
	q.queue[q.head] = nil
	q.head++
	q.queued -= m.WireSize()
	if q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	return m
}

// discard drops everything queued; the connection is done.
func (q *QueuedConn) discard() {
	q.queue, q.head, q.queued = nil, 0, 0
}

// fail records the first send error; later Sends return it.
func (q *QueuedConn) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.err = err
	q.discard()
}

// Send enqueues m; it never blocks on the network.
func (q *QueuedConn) Send(m *wire.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.err != nil {
		return q.err
	}
	if q.head > 0 && len(q.queue) == cap(q.queue) {
		// A backlog that never quite drains: slide it down over the
		// vacated slots instead of growing the array past them.
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue, q.head = q.queue[:n], 0
	}
	q.queue = append(q.queue, m)
	q.queued += m.WireSize()
	for q.bound > 0 && q.queued > q.bound && len(q.queue)-q.head > 1 {
		q.pop()
		q.dropped++
	}
	q.cond.Signal()
	return nil
}

// Recv passes through to the wrapped connection.
func (q *QueuedConn) Recv() (*wire.Message, error) { return q.inner.Recv() }

// Close stops the writer (queued messages are discarded), closes the
// wrapped connection, and joins the writer goroutine. Closing the inner
// connection first unblocks a writer stuck mid-Send on a slow socket.
func (q *QueuedConn) Close() error {
	q.shutdown()
	err := q.inner.Close()
	<-q.done
	return err
}

func (q *QueuedConn) shutdown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// SetRecvTimeout passes through to the wrapped connection.
func (q *QueuedConn) SetRecvTimeout(d time.Duration) { q.inner.SetRecvTimeout(d) }

// Dropped reports how many messages the drop-oldest bound evicted.
func (q *QueuedConn) Dropped() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

var _ Conn = (*QueuedConn)(nil)

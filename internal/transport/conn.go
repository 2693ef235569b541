package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"livenas/internal/wire"
)

// Conn is the message-oriented connection every real-network path runs
// over: the ingest demo (client→server), the distribution edge
// (origin→relay→viewer) and any future control plane. Two implementations
// exist — NetConn wraps a real net.Conn with the versioned wire framing,
// and SimConn rides on two netem links on the virtual clock — so the same
// protocol code drives real processes and deterministic experiments.
//
// Send hands one message to the connection; it may block until the bytes
// reach the OS (NetConn) but never until the peer consumes them (SimConn
// queues and delivers on the simulator). Recv blocks for the next message,
// honouring the receive timeout set by SetRecvTimeout (each Recv gets the
// full timeout; 0 disables it). Close tears the connection down; a blocked
// or subsequent Recv on either side returns an error.
//
// Event-driven consumers (the edge actors, which must run identically on
// the simulator and on sockets) do not call Recv; they receive messages
// through a delivery loop — SimConn's OnMessage handler in simulation, a
// per-connection Recv goroutine in real processes.
type Conn interface {
	Send(m *wire.Message) error
	Recv() (*wire.Message, error)
	Close() error
	// SetRecvTimeout bounds each subsequent Recv; d <= 0 disables the bound.
	SetRecvTimeout(d time.Duration)
}

// ErrClosed is returned by Send/Recv on a connection either side closed.
var ErrClosed = errors.New("transport: connection closed")

// ErrRecvTimeout is returned by Recv when the receive timeout elapses with
// no message. NetConn returns the underlying net timeout error instead, a
// net.Error whose Timeout reports true.
var ErrRecvTimeout = errors.New("transport: receive timeout")

// NetConn is the real-socket Conn: the versioned wire framing over a
// net.Conn. It is safe for one concurrent sender and one concurrent
// receiver (the usual split: a write path and a Recv loop); Send holds a
// mutex so multiple senders also serialise correctly.
type NetConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex // serialises frames on the socket

	tmu     sync.Mutex
	timeout time.Duration
	armed   bool // the socket carries a read deadline from an earlier Recv
}

// NewNetConn wraps an established net.Conn.
func NewNetConn(c net.Conn) *NetConn {
	return &NetConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// Dial connects a NetConn over TCP.
func Dial(addr string) (*NetConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewNetConn(c), nil
}

// Send writes one framed message to the socket: a small one in a single
// write, a large one as header and payload in a single writev (net.Conn
// implementations without writev get two writes), in both cases under wmu
// so frames from concurrent senders never interleave. A message over the
// frame limit is refused with nothing written.
func (n *NetConn) Send(m *wire.Message) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	return wire.WriteFrame(n.c, m)
}

// Recv reads the next framed message. Frames written by a newer protocol
// version are skipped (the versioned framing makes them self-delimiting),
// so a newer peer never desynchronises an older reader.
func (n *NetConn) Recv() (*wire.Message, error) {
	timeout, disarm := n.recvDeadline()
	if timeout > 0 {
		if err := n.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	} else if disarm {
		if err := n.c.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	for {
		m, err := wire.ReadFrame(n.br)
		if err == nil {
			return m, nil
		}
		var ve *wire.VersionError
		if errors.As(err, &ve) {
			continue // tolerate newer peers: frame consumed, read the next
		}
		return nil, err
	}
}

// recvDeadline returns the timeout this Recv runs under and whether it has
// to clear a deadline an earlier Recv armed. A connection that never had a
// timeout never touches the socket's deadline (a pollDesc lock per message
// on every pump goroutine otherwise).
func (n *NetConn) recvDeadline() (timeout time.Duration, disarm bool) {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	disarm = n.armed && n.timeout <= 0
	n.armed = n.timeout > 0
	return n.timeout, disarm
}

// Close closes the underlying socket.
func (n *NetConn) Close() error { return n.c.Close() }

// SetRecvTimeout bounds each subsequent Recv.
func (n *NetConn) SetRecvTimeout(d time.Duration) {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	n.timeout = d
}

// RemoteAddr exposes the peer address for logging.
func (n *NetConn) RemoteAddr() net.Addr { return n.c.RemoteAddr() }

// Pump is the real-process delivery loop: it blocks on Recv and hands each
// message to h until the connection errors, then returns that error. Run it
// on its own goroutine per connection — it is the socket-world equivalent
// of SimConn's OnMessage, feeding the same event-driven handlers.
func Pump(c Conn, h func(*wire.Message)) error {
	for {
		m, err := c.Recv()
		if err != nil {
			return err
		}
		h(m)
	}
}

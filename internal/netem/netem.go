// Package netem emulates a bandwidth-constrained network path on the
// discrete-event simulator, in the style of Mahimahi (which the paper uses):
// a trace-driven bottleneck link with a bounded byte queue and fixed
// propagation delay. It is the module's only simulated link: the ingest
// client's packets traverse one, and each direction of a transport.SimConn
// is one.
package netem

import (
	"math/rand"
	"time"

	"livenas/internal/sim"
	"livenas/internal/trace"
)

// Packet is one transmission unit crossing the link.
type Packet struct {
	Seq     int
	Size    int // bytes on the wire
	SentAt  time.Duration
	Payload any
}

// Stats aggregates link counters.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	BytesIn   int
	BytesOut  int
}

// Link is a trace-driven bottleneck: packets wait in a bounded FIFO queue,
// are serviced one at a time at the trace rate sampled when their service
// starts, and arrive after an additional propagation delay.
type Link struct {
	sim        *sim.Simulator
	tr         *trace.Trace // nil: infinitely fast
	propDel    time.Duration
	queueCap   int // bytes; <= 0: unbounded
	dropOldest bool
	deliver    func(Packet)

	wait, flight fifo   // waiting for service; served and propagating
	serving      Packet // on the wire while busy
	busy, closed bool
	queued       int // bytes waiting or in service
	stats        Stats

	complete, arrive func() // the event callbacks, bound once: scheduling allocates nothing

	lossRate float64
	lossRng  *rand.Rand
}

// NewLink creates a drop-tail link that calls deliver for each arriving
// packet. queueCap bounds the bytes waiting or in service (Mahimahi-style;
// live ingest paths use shallow buffers — §3 "the ingest server cannot use
// much buffer"); a packet that would exceed it is refused.
func NewLink(s *sim.Simulator, tr *trace.Trace, propDelay time.Duration, queueCap int, deliver func(Packet)) *Link {
	l := &Link{sim: s, tr: tr, propDel: propDelay, queueCap: queueCap, deliver: deliver}
	l.complete, l.arrive = l.onComplete, l.onArrive
	return l
}

// NewDropOldestLink creates a link whose full queue evicts its oldest
// waiting packets, never the newcomer — for live distribution, where a
// stale segment is worthless but the newest is not. queueCap bounds the
// bytes waiting; the packet in service does not count.
func NewDropOldestLink(s *sim.Simulator, tr *trace.Trace, propDelay time.Duration, queueCap int, deliver func(Packet)) *Link {
	l := NewLink(s, tr, propDelay, queueCap, deliver)
	l.dropOldest = true
	return l
}

// SetLossRate adds independent random packet loss on top of queue drops
// (seeded for reproducibility). Use for loss-recovery experiments.
func (l *Link) SetLossRate(rate float64, seed int64) {
	l.lossRate = rate
	l.lossRng = rand.New(rand.NewSource(seed))
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() Stats { return l.stats }

// QueuedBytes reports the bytes currently waiting or in service.
func (l *Link) QueuedBytes() int { return l.queued }

// RateAt exposes the underlying trace rate (kbps) at time t; experiments
// use it to plot "available bandwidth".
func (l *Link) RateAt(t time.Duration) float64 { return l.tr.RateAt(t) }

// Send enqueues a packet. It returns false if the link refuses it: over a
// drop-tail bound or lost at random (both counted as drops), or closed.
// Drop-oldest evictions count as drops too.
func (l *Link) Send(p Packet) bool {
	if l.closed {
		return false
	}
	l.stats.Sent++
	l.stats.BytesIn += p.Size
	if !l.dropOldest && l.over(l.queued+p.Size) || l.lossRate > 0 && l.lossRng.Float64() < l.lossRate {
		l.stats.Dropped++
		return false
	}
	p.SentAt = l.sim.Now()
	l.wait.push(p)
	l.queued += p.Size
	for l.dropOldest && l.over(l.queued-l.serving.Size) && l.wait.len() > 1 {
		l.queued -= l.wait.pop().Size
		l.stats.Dropped++
	}
	if !l.busy {
		l.serve()
	}
	return true
}

func (l *Link) over(bytes int) bool { return l.queueCap > 0 && bytes > l.queueCap }

// Close stops the link: it refuses further packets and discards those
// waiting. The packet in service and those propagating still arrive.
func (l *Link) Close() {
	l.closed = true
	l.wait, l.queued = fifo{}, l.serving.Size
}

// serve starts the next waiting packet's service and schedules its
// completion at the trace rate sampled now (clamped to 1 kbps through
// outages). A varying-rate integral would be more exact; per-second trace
// samples and sub-second packets make the start-rate approximation tight.
func (l *Link) serve() {
	if l.wait.len() == 0 {
		return
	}
	l.serving, l.busy = l.wait.pop(), true
	var tx time.Duration
	if l.tr != nil {
		rate := max(l.tr.RateAt(l.sim.Now()), 1)
		tx = time.Duration(float64(l.serving.Size*8) / (rate * 1000) * float64(time.Second))
	}
	l.sim.At(l.sim.Now()+tx, l.complete)
}

// onComplete schedules the served packet's arrival, then starts the next
// service: at equal times the arrival runs first.
func (l *Link) onComplete() {
	l.queued -= l.serving.Size
	l.flight.push(l.serving)
	l.serving, l.busy = Packet{}, false
	l.sim.At(l.sim.Now()+l.propDel, l.arrive)
	l.serve()
}

// onArrive delivers the oldest propagating packet: arrivals run in
// completion order, a fixed delay after it.
func (l *Link) onArrive() {
	p := l.flight.pop()
	l.stats.Delivered++
	l.stats.BytesOut += p.Size
	l.deliver(p)
}

// fifo is a packet queue whose pop clears the slot it vacates, so a packet
// that has left holds nothing alive. A drained queue rewinds to the start
// of its array; a backlog that never drains slides down instead of growing it.
type fifo struct {
	q    []Packet // q[head:] is queued
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }

func (f *fifo) push(p Packet) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, p)
}

func (f *fifo) pop() Packet {
	p := f.q[f.head]
	f.q[f.head] = Packet{}
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return p
}

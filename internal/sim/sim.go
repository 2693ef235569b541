// Package sim provides the discrete-event simulator every LiveNAS-Go
// experiment runs on. Ingest sessions, network links, training epochs and
// distribution-side playback all advance a shared virtual clock, so hundreds
// of stream-hours of evaluation (the paper reports 366 hours) execute in CPU
// minutes while preserving ordering and timing semantics.
package sim

import "time"

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreaker for determinism at equal times
	fn  func()
}

// before is the heap order. seq is unique, so (at, seq) is a total order and
// the pop sequence does not depend on how the heap arranges itself.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap of events by value: only growth allocates.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for ; i > 0 && e.before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = e
}

// pop removes the earliest event and zeroes the slot it vacates: spare
// capacity must not keep a closure that has run, and what it captured, alive.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, e := q[0], q[n]
	q[n] = event{}
	*h = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&e) {
			break
		}
		q[i], i = q[c], c
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// Simulator is a single-threaded discrete-event loop. It is not safe for
// concurrent use; all scheduled callbacks run on the caller's goroutine.
type Simulator struct {
	now  time.Duration
	seq  uint64
	pq   eventHeap
	halt bool
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it always indicates a logic error in the caller.
func (s *Simulator) At(t time.Duration, fn func()) {
	if t < s.now {
		panic("sim: scheduling into the past")
	}
	s.seq++
	s.pq.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current virtual time (d < 0 is clamped).
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Stop makes Run/RunUntil return after the currently executing event.
func (s *Simulator) Stop() { s.halt = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.halt = false
	for len(s.pq) > 0 && !s.halt {
		e := s.pq.pop()
		s.now = e.at
		e.fn()
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	s.halt = false
	for s.StepUntil(t, 0) {
	}
}

// StepUntil executes up to budget events with timestamps <= t (budget <= 0
// means unbounded) and reports whether eligible events remain. Callers use
// it to interleave the event loop with external checks — context
// cancellation, progress reporting — at event boundaries:
//
//	for s.StepUntil(d, 1024) {
//		if ctx.Err() != nil { ... }
//	}
//
// When it returns false (drained, past t, or stopped) the clock is advanced
// to t exactly as RunUntil would, so a completed stepped run and RunUntil
// are indistinguishable. Unlike RunUntil it does not clear a pending Stop:
// a Stop halts the whole stepped run, not one slice of it.
func (s *Simulator) StepUntil(t time.Duration, budget int) bool {
	for n := 0; len(s.pq) > 0 && !s.halt && s.pq[0].at <= t; n++ {
		if budget > 0 && n >= budget {
			return true
		}
		e := s.pq.pop()
		s.now = e.at
		e.fn()
	}
	if !s.halt && t > s.now {
		s.now = t
	}
	return false
}

// Pending reports the number of scheduled events.
func (s *Simulator) Pending() int { return len(s.pq) }

// Next reports the timestamp of the earliest pending event. Drivers that
// must advance the clock only as far as real work exists (for example a
// blocking Recv on a simulated connection) peek here instead of running
// to an arbitrary horizon.
func (s *Simulator) Next() (time.Duration, bool) {
	if len(s.pq) == 0 {
		return 0, false
	}
	return s.pq[0].at, true
}

package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refHeap is the container/heap event queue the simulator ran on before the
// typed heap: the oracle for TestEventHeapMatchesRef.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// refSim is Simulator's At/StepUntil/Stop over refHeap, statement for
// statement.
type refSim struct {
	now  time.Duration
	seq  uint64
	pq   refHeap
	halt bool
}

func (s *refSim) Now() time.Duration { return s.now }
func (s *refSim) Stop()              { s.halt = true }
func (s *refSim) Pending() int       { return len(s.pq) }

func (s *refSim) At(t time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

func (s *refSim) StepUntil(t time.Duration, budget int) bool {
	for n := 0; len(s.pq) > 0 && !s.halt && s.pq[0].at <= t; n++ {
		if budget > 0 && n >= budget {
			return true
		}
		e := heap.Pop(&s.pq).(event)
		s.now = e.at
		e.fn()
	}
	if !s.halt && t > s.now {
		s.now = t
	}
	return false
}

// scheduler is what a random schedule drives: the simulator or its oracle.
type scheduler interface {
	Now() time.Duration
	At(time.Duration, func())
	StepUntil(time.Duration, int) bool
	Stop()
	Pending() int
}

// fired is one executed event as a schedule observes it.
type fired struct {
	id      int
	at      time.Duration
	pending int
}

// runSchedule plays one seeded schedule on s and returns everything
// observable about it: which event ran when and with how many still pending,
// what each StepUntil slice reported, and where the clock ended. Timestamps
// come from a handful of values so ties are the rule; events schedule more
// events (at the current instant too) and a few call Stop.
func runSchedule(s scheduler, seed int64) (log []fired, steps []bool, end time.Duration) {
	r := rand.New(rand.NewSource(seed))
	ids := 0
	var add func(depth int)
	add = func(depth int) {
		id := ids
		ids++
		at := s.Now() + time.Duration(r.Intn(6))*time.Millisecond
		children, stop := 0, false
		if depth < 3 {
			children = r.Intn(4)
			stop = r.Intn(40) == 0
		}
		s.At(at, func() {
			log = append(log, fired{id, s.Now(), s.Pending()})
			for i := 0; i < children; i++ {
				add(depth + 1)
			}
			if stop {
				s.Stop()
			}
		})
	}
	for i, n := 0, 1+r.Intn(30); i < n; i++ {
		add(0)
	}
	horizon := time.Duration(r.Intn(25)) * time.Millisecond
	budget := r.Intn(5) // 0: unbounded
	for slices := 0; slices < 1000; slices++ {
		more := s.StepUntil(horizon, budget)
		steps = append(steps, more)
		if !more {
			break
		}
	}
	return log, steps, s.Now()
}

// TestEventHeapMatchesRef: over 10^4 random schedules the typed heap runs
// the same events at the same instants in the same order as container/heap
// did, through equal timestamps, nested scheduling, Stop and StepUntil
// budgets. (at, seq) is a total order, so nothing else is acceptable.
func TestEventHeapMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 10000; seed++ {
		gotLog, gotSteps, gotEnd := runSchedule(New(), seed)
		wantLog, wantSteps, wantEnd := runSchedule(&refSim{}, seed)
		if len(gotLog) != len(wantLog) || len(gotSteps) != len(wantSteps) || gotEnd != wantEnd {
			t.Fatalf("seed %d: %d events, %d slices, clock %v; oracle %d, %d, %v",
				seed, len(gotLog), len(gotSteps), gotEnd, len(wantLog), len(wantSteps), wantEnd)
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d, event %d: ran %+v, oracle %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		for i := range gotSteps {
			if gotSteps[i] != wantSteps[i] {
				t.Fatalf("seed %d, slice %d: StepUntil reported %v, oracle %v", seed, i, gotSteps[i], wantSteps[i])
			}
		}
	}
}

// TestSimPopReleasesClosure: an event that has run must not stay reachable
// from the queue's spare capacity — in the edge simulation its closure holds
// a segment payload. The simulator stays alive, with events still pending,
// while the buffer a popped event captured is collected.
func TestSimPopReleasesClosure(t *testing.T) {
	s := New()
	collected := make(chan struct{})
	func() {
		buf := make([]byte, 1<<20)
		runtime.SetFinalizer(&buf[0], func(*byte) { close(collected) })
		s.At(time.Second, func() { buf[0]++ })
	}()
	for i := 2; i <= 8; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
	}
	s.RunUntil(time.Second)
	if s.Pending() != 7 {
		t.Fatalf("%d events pending, want 7", s.Pending())
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s)
	t.Fatal("the buffer a popped event captured is still reachable from the simulator")
}

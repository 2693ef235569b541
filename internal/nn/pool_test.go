package nn

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCloseJoinsWorkers proves the pool's ownership contract: when
// Close returns, every worker goroutine the pool spawned has left its job
// loop, and soon after none is left at all, so a bounded pipeline (a core
// session with a dedicated pool) leaves no goroutines behind.
func TestPoolCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	stacks := make([]byte, 1<<20) // allocated up front: Close to check is short
	idleBefore := idlePoolWorkers(stacks)

	p := NewPool(8)
	var n atomic.Int64
	p.Run(64, func(int) { n.Add(1) })
	if n.Load() != 64 {
		t.Fatalf("Run executed %d of 64 tasks", n.Load())
	}
	p.Close()

	// A worker leaves its job loop before its deferred Done, so a Close
	// that waited for every Done leaves none of them parked in the loop.
	// A Close that only closed the job channel returns with its workers
	// still there: they exit on their own a moment later, which the count
	// below alone would accept.
	if idle := idlePoolWorkers(stacks) - idleBefore; idle > 0 {
		t.Fatalf("Close returned with %d workers still in their job loop", idle)
	}

	// Close joins via the pool's WaitGroup, but a worker's deferred Done
	// runs a beat before the scheduler retires the goroutine, so poll
	// briefly for the count to settle back to the pre-pool level.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines outlive Close (had %d before the pool)", got, before)
	}

	// Closing nil and inline pools is a documented no-op.
	var nilPool *Pool
	nilPool.Close()
	NewPool(1).Close()
}

// idlePoolWorkers counts the goroutines, across every pool, that are in a
// worker's job loop: parked on the job channel's receive, or started and
// not yet run (the traceback then shows the worker at its entry, with no
// pc offset).
func idlePoolWorkers(buf []byte) int {
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	idle := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		_, frame, ok := strings.Cut(g, "internal/nn.NewPool.func1()\n")
		if !ok {
			continue
		}
		where, _, _ := strings.Cut(frame, "\n")
		if strings.Contains(g, "runtime.chanrecv") || !strings.Contains(where, " +0x") {
			idle++
		}
	}
	return idle
}

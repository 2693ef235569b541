package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistryStress hammers one registry from many goroutines —
// metric writes, event emission, registration of new handles and
// snapshots — all at once. It is meaningful under `go test
// -race ./internal/telemetry` (part of the scripts/ci.sh full concurrency
// tier); without -race it still asserts the totals that must be exact
// under the atomic API.
func TestConcurrentRegistryStress(t *testing.T) {
	r := New()
	c := r.Counter("shared_counter")
	h := r.Histogram("shared_hist", ExpBuckets(1, 4, 8))
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i % 1000))
				if i%64 == 0 {
					r.Emit(time.Duration(g*perG+i), "stress", Num("i", float64(i)))
				}
				if i%128 == 0 {
					r.Counter("late_registration").Inc()
				}
			}
		}()
	}
	// Concurrent readers: snapshots and event scans while writers run.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				s := r.Snapshot()
				if s.Counters["shared_counter"] < 0 {
					t.Error("negative counter in snapshot")
				}
				_ = r.EventsByType("stress")
				_ = h.Quantile(0.99)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := c.Value(); got != writers*perG {
		t.Fatalf("counter = %d, want %d", got, writers*perG)
	}
	if got := h.Count(); got != writers*perG {
		t.Fatalf("histogram count = %d, want %d", got, writers*perG)
	}
}

// TestEventCapSnapshotLockPair races SetEventCap against Snapshot, the pair
// of Registry paths between which the trace lock (evMu) and the metric lock
// (mu) meet. Neither may take one lock while holding the other in the
// opposite order: SetEventCap registering a counter under evMu while
// snapshotMetrics counts events under mu deadlocks this pair within its
// 200 ms race, and the bounded wait turns that hang into a failure.
func TestEventCapSnapshotLockPair(t *testing.T) {
	r := New()
	for i := 0; i < 32; i++ {
		r.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		r.Histogram(fmt.Sprintf("h%d", i), ExpBuckets(1, 2, 16)).Observe(float64(i))
	}
	stop := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 1; time.Now().Before(stop); n++ {
			r.SetEventCap(n)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			r.Snapshot()
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SetEventCap and Snapshot deadlocked: evMu and mu are taken in opposite orders")
	}
}

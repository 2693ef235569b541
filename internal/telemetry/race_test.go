package telemetry

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistryStress hammers one registry from many goroutines —
// metric writes, event emission, registration of new handles, snapshots,
// and enable/disable flips — all at once. It is meaningful under `go test
// -race ./internal/telemetry` (part of the scripts/ci.sh full concurrency
// tier); without -race it still asserts the totals that must be exact
// under the atomic API.
func TestConcurrentRegistryStress(t *testing.T) {
	r := New()
	r.SetSink(io.Discard)
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
			gauge := r.Gauge("per_writer_gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Set(float64(i))
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
	if err := r.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
}

// TestConcurrentEnableFlip races the master switch against writers; totals
// cannot be asserted (flips drop an unknowable number of increments) but
// the detector must stay quiet and the final re-enabled state must record.
func TestConcurrentEnableFlip(t *testing.T) {
	r := New()
	c := r.Counter("c")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.SetEnabled(i%2 == 0)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
				r.Emit(0, "flip")
			}
		}()
	}
	time.Sleep(time.Millisecond)
	close(stop)
	wg.Wait()
	r.SetEnabled(true)
	before := c.Value()
	c.Inc()
	if c.Value() != before+1 {
		t.Fatal("counter dead after enable flips")
	}
}

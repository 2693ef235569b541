package gcc

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// mkAcks builds a feedback window of n packets with a linear delay ramp:
// owd(i) = base + slope*i*gap (slope in ms per packet interval).
func mkAcks(n int, start time.Duration, gap time.Duration, baseOWD time.Duration, rampPerPacket time.Duration, size int) []Ack {
	acks := make([]Ack, n)
	for i := range acks {
		sent := start + time.Duration(i)*gap
		owd := baseOWD + time.Duration(i)*rampPerPacket
		acks[i] = Ack{Seq: i, Size: size, SentAt: sent, RecvAt: sent + owd}
	}
	return acks
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if c.TargetKbps() != 600 {
		t.Fatalf("init %v", c.TargetKbps())
	}
	if c.State() != StateIncrease {
		t.Fatalf("state %v", c.State())
	}
}

func TestIncreaseOnStableDelay(t *testing.T) {
	c := New(Config{InitKbps: 500})
	now := 100 * time.Millisecond
	for i := 0; i < 10; i++ {
		acks := mkAcks(10, now-100*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 0, 1200)
		c.OnFeedback(now, acks, 0)
		now += 100 * time.Millisecond
	}
	if c.TargetKbps() <= 500 {
		t.Fatalf("rate %v did not grow on clean path", c.TargetKbps())
	}
	if c.State() != StateIncrease {
		t.Fatalf("state %v", c.State())
	}
}

func TestDecreaseOnDelayRamp(t *testing.T) {
	c := New(Config{InitKbps: 2000})
	// 1 ms extra delay per 10 ms send interval = 100 ms/s slope: overuse.
	acks := mkAcks(10, 0, 10*time.Millisecond, 20*time.Millisecond, time.Millisecond, 1200)
	c.OnFeedback(100*time.Millisecond, acks, 0)
	if c.State() != StateDecrease {
		t.Fatalf("state %v want decrease", c.State())
	}
	if c.TargetKbps() >= 2000 {
		t.Fatalf("rate %v did not decrease", c.TargetKbps())
	}
}

func TestDecreaseTracksMeasuredRate(t *testing.T) {
	c := New(Config{InitKbps: 5000})
	// 10 packets x 1200 B in 100 ms = 960 kbps measured; one decrease event
	// cuts at most half, so repeated overuse converges to 0.85x measured.
	for i := 0; i < 20; i++ {
		acks := mkAcks(10, time.Duration(i)*100*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 2*time.Millisecond, 1200)
		c.OnFeedback(time.Duration(i+1)*100*time.Millisecond, acks, 0)
	}
	// The delay pattern resets every window (queues drain between reports),
	// so the controller should settle in the neighbourhood of the path's
	// delivered rate (960 kbps) — far below the initial 5000 and no higher
	// than the 1.5x-measured increase cap.
	got := c.TargetKbps()
	if got < 400 || got > 1.5*960+1 {
		t.Fatalf("converged to %v; want within [400, 1440]", got)
	}
}

func TestHoldOnUnderuse(t *testing.T) {
	c := New(Config{InitKbps: 1000})
	// Falling delay: queues draining.
	acks := mkAcks(10, 0, 10*time.Millisecond, 50*time.Millisecond, -2*time.Millisecond, 1200)
	c.OnFeedback(100*time.Millisecond, acks, 0)
	if c.State() != StateHold {
		t.Fatalf("state %v want hold", c.State())
	}
	if c.TargetKbps() != 1000 {
		t.Fatalf("hold changed rate to %v", c.TargetKbps())
	}
}

func TestLossBackoff(t *testing.T) {
	c := New(Config{InitKbps: 3000})
	acks := mkAcks(8, 0, 10*time.Millisecond, 20*time.Millisecond, 0, 1200)
	c.OnFeedback(100*time.Millisecond, acks, 4) // 33% loss
	if c.State() != StateDecrease {
		t.Fatalf("state %v", c.State())
	}
	got := c.TargetKbps()
	want := 3000 * (1 - 0.5*(4.0/12.0))
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("loss backoff to %v want ~%v", got, want)
	}
}

func TestSmallLossTolerated(t *testing.T) {
	c := New(Config{InitKbps: 1000})
	acks := mkAcks(50, 0, 2*time.Millisecond, 20*time.Millisecond, 0, 1200)
	c.OnFeedback(100*time.Millisecond, acks, 1) // 2% loss
	if c.State() == StateDecrease {
		t.Fatal("2% loss should not trigger decrease")
	}
}

func TestIncreaseCappedByMeasuredRate(t *testing.T) {
	c := New(Config{InitKbps: 10000})
	// Path only delivers ~960 kbps; rate must be pulled toward 1.5x that,
	// never pushed above the configured value while in increase.
	for i := 0; i < 5; i++ {
		acks := mkAcks(10, time.Duration(i)*100*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 0, 1200)
		c.OnFeedback(time.Duration(i+1)*100*time.Millisecond, acks, 0)
	}
	if c.TargetKbps() > 10000 {
		t.Fatalf("rate %v grew beyond initial despite capped path", c.TargetKbps())
	}
}

func TestClampsToBounds(t *testing.T) {
	c := New(Config{InitKbps: 100, MinKbps: 50, MaxKbps: 200})
	// Repeated heavy loss cannot push below MinKbps.
	for i := 0; i < 20; i++ {
		c.OnFeedback(time.Duration(i+1)*100*time.Millisecond, nil, 10)
	}
	if c.TargetKbps() < 50 {
		t.Fatalf("rate %v below floor", c.TargetKbps())
	}
	// Repeated clean feedback cannot exceed MaxKbps.
	c2 := New(Config{InitKbps: 190, MinKbps: 50, MaxKbps: 200})
	for i := 0; i < 20; i++ {
		acks := mkAcks(20, time.Duration(i)*100*time.Millisecond, 5*time.Millisecond, 10*time.Millisecond, 0, 1500)
		c2.OnFeedback(time.Duration(i+1)*100*time.Millisecond, acks, 0)
	}
	if c2.TargetKbps() > 200 {
		t.Fatalf("rate %v above ceiling", c2.TargetKbps())
	}
}

func TestCautiousAfterDecrease(t *testing.T) {
	c := New(Config{InitKbps: 2000})
	// Trigger a decrease.
	acks := mkAcks(10, 0, 10*time.Millisecond, 20*time.Millisecond, 2*time.Millisecond, 1200)
	c.OnFeedback(100*time.Millisecond, acks, 0)
	r := c.TargetKbps()
	// Clean feedback right after: growth must be the cautious 2%, not 6%.
	clean := mkAcks(40, 100*time.Millisecond, 2*time.Millisecond, 20*time.Millisecond, 0, 1500)
	c.OnFeedback(200*time.Millisecond, clean, 0)
	growth := c.TargetKbps() / r
	if growth > 1.03 {
		t.Fatalf("growth %.3f right after decrease; want <= 1.02ish", growth)
	}
}

func TestOWDSlopeFit(t *testing.T) {
	// Known slope: +5 ms per 100 ms of send time = 50 ms/s.
	acks := mkAcks(11, 0, 100*time.Millisecond, 30*time.Millisecond, 5*time.Millisecond, 1000)
	got := owdSlopeMsPerSec(acks)
	if got < 49 || got > 51 {
		t.Fatalf("slope %v want ~50", got)
	}
	// Flat delay: slope ~0.
	flat := mkAcks(11, 0, 100*time.Millisecond, 30*time.Millisecond, 0, 1000)
	if s := owdSlopeMsPerSec(flat); s < -0.001 || s > 0.001 {
		t.Fatalf("flat slope %v", s)
	}
}

// jitteredWindows builds a seeded ack stream of n 100 ms feedback windows:
// 8-15 packets per window with jittered send gaps and one-way delays, over
// a queue that slowly builds and drains, so the bin window holds dozens of
// distinct min-OWD values with full-precision fractional parts.
func jitteredWindows(seed int64, n int) [][]Ack {
	rng := rand.New(rand.NewSource(seed))
	windows := make([][]Ack, n)
	seq := 0
	for w := range windows {
		start := time.Duration(w) * 100 * time.Millisecond
		k := 8 + rng.Intn(8)
		acks := make([]Ack, k)
		for i := range acks {
			sent := start + time.Duration(rng.Int63n(int64(100*time.Millisecond)))
			queue := 15 * (1 + math.Sin(float64(w)/12)) // ms, drifting
			owd := time.Duration((20 + float64(queue) + float64(4*rng.Float64())) * float64(time.Millisecond))
			acks[i] = Ack{Seq: seq, Size: 600 + rng.Intn(700), SentAt: sent, RecvAt: sent + owd}
			seq++
		}
		windows[w] = acks
	}
	return windows
}

// TestObserveDelaysReplayBitExact: one ack stream replayed through fresh
// controllers must give bit-identical delay slopes and rate targets after
// every window. The least-squares fold in observeDelays adds floats, which
// is not associative, so folding range c.bins in map order makes the slope
// (and through it the whole rate trace) differ between replays.
func TestObserveDelaysReplayBitExact(t *testing.T) {
	const replays = 5
	windows := jitteredWindows(42, 240)
	type point struct{ slope, kbps uint64 }
	var first []point
	for r := 0; r < replays; r++ {
		c := New(Config{InitKbps: 800})
		for w, acks := range windows {
			c.OnFeedback(time.Duration(w+1)*100*time.Millisecond, acks, 0)
			p := point{math.Float64bits(c.smoothedSlope), math.Float64bits(c.TargetKbps())}
			if r == 0 {
				first = append(first, p)
				continue
			}
			if p != first[w] {
				t.Fatalf("replay %d, window %d: slope %v, target %v kbps; first run had %v, %v",
					r, w, c.smoothedSlope, c.TargetKbps(),
					math.Float64frombits(first[w].slope), math.Float64frombits(first[w].kbps))
			}
		}
	}
	// The stream must exercise the fold: a full bin window and a slope
	// that moves, or the test pins nothing.
	var moved int
	for w := 1; w < len(first); w++ {
		if first[w].slope != first[w-1].slope {
			moved++
		}
	}
	if moved < len(first)/2 {
		t.Fatalf("slope changed in only %d of %d windows", moved, len(first))
	}
}

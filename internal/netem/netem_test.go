package netem

import (
	"testing"
	"time"

	"livenas/internal/sim"
	"livenas/internal/trace"
)

func flatTrace(kbps float64) *trace.Trace {
	ks := make([]float64, 600)
	for i := range ks {
		ks[i] = kbps
	}
	return &trace.Trace{Name: "flat", DT: time.Second, Kbps: ks}
}

func TestDeliveryTimeAtLinkRate(t *testing.T) {
	s := sim.New()
	var recvAt time.Duration
	l := NewLink(s, flatTrace(1000), 10*time.Millisecond, 1<<20, func(p Packet) {
		recvAt = s.Now()
	})
	// 1250 bytes at 1000 kbps = 10 ms serialisation + 10 ms propagation.
	l.Send(Packet{Seq: 1, Size: 1250})
	s.Run()
	want := 20 * time.Millisecond
	if d := recvAt - want; d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("delivered at %v want ~%v", recvAt, want)
	}
}

func TestFIFOOrdering(t *testing.T) {
	s := sim.New()
	var order []int
	l := NewLink(s, flatTrace(500), 5*time.Millisecond, 1<<20, func(p Packet) {
		order = append(order, p.Seq)
	})
	for i := 0; i < 20; i++ {
		l.Send(Packet{Seq: i, Size: 1200})
	}
	s.Run()
	if len(order) != 20 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestQueueBuildsDelay(t *testing.T) {
	// Packets sent back-to-back above the link rate must see growing delay.
	s := sim.New()
	var delays []time.Duration
	l := NewLink(s, flatTrace(800), 5*time.Millisecond, 1<<20, func(p Packet) {
		delays = append(delays, s.Now()-p.SentAt)
	})
	for i := 0; i < 10; i++ {
		l.Send(Packet{Seq: i, Size: 1200})
	}
	s.Run()
	for i := 1; i < len(delays); i++ {
		if delays[i] <= delays[i-1] {
			t.Fatalf("delay not growing under burst: %v", delays)
		}
	}
}

func TestDropTail(t *testing.T) {
	s := sim.New()
	delivered := 0
	l := NewLink(s, flatTrace(100), time.Millisecond, 3000, func(p Packet) {
		delivered++
	})
	okCount := 0
	for i := 0; i < 10; i++ {
		if l.Send(Packet{Seq: i, Size: 1200}) {
			okCount++
		}
	}
	s.Run()
	if okCount != 2 { // 2 x 1200 = 2400 <= 3000; third would exceed
		t.Fatalf("accepted %d packets, want 2", okCount)
	}
	st := l.Stats()
	if st.Dropped != 8 || st.Delivered != 2 || delivered != 2 {
		t.Fatalf("stats %+v delivered=%d", st, delivered)
	}
}

func TestQueueDrains(t *testing.T) {
	s := sim.New()
	l := NewLink(s, flatTrace(1000), time.Millisecond, 1<<20, func(Packet) {})
	for i := 0; i < 5; i++ {
		l.Send(Packet{Seq: i, Size: 1000})
	}
	if l.QueuedBytes() != 5000 {
		t.Fatalf("queued %d", l.QueuedBytes())
	}
	s.Run()
	if l.QueuedBytes() != 0 {
		t.Fatalf("queue did not drain: %d", l.QueuedBytes())
	}
}

func TestRateChangesWithTrace(t *testing.T) {
	// A trace that doubles its rate halfway: packets serviced in the fast
	// half take half the serialisation time.
	ks := make([]float64, 60)
	for i := range ks {
		if i < 30 {
			ks[i] = 400
		} else {
			ks[i] = 4000
		}
	}
	tr := &trace.Trace{Name: "step", DT: time.Second, Kbps: ks}
	s := sim.New()
	var times []time.Duration
	l := NewLink(s, tr, 0, 1<<20, func(p Packet) { times = append(times, s.Now()) })

	l.Send(Packet{Seq: 0, Size: 5000}) // 100 ms at 400 kbps
	s.RunUntil(40 * time.Second)
	l.Send(Packet{Seq: 1, Size: 5000}) // 10 ms at 4000 kbps
	s.Run()
	d0 := times[0]
	d1 := times[1] - 40*time.Second
	if d0 < 90*time.Millisecond || d0 > 110*time.Millisecond {
		t.Fatalf("slow-phase delivery %v", d0)
	}
	if d1 > 15*time.Millisecond {
		t.Fatalf("fast-phase delivery %v", d1)
	}
}

// TestLinkServiceTimes pins the serialise-queue-deliver shape exactly:
// back-to-back packets arrive one serialisation time apart, the first one
// serialisation time plus the propagation delay after the send, and a link
// without a trace is infinitely fast.
func TestLinkServiceTimes(t *testing.T) {
	for _, tc := range []struct {
		tr   *trace.Trace
		want []time.Duration
	}{
		// 1000 bytes at 100 kbps = 80 ms serialisation, + 10 ms propagation.
		{flatTrace(100), []time.Duration{90 * time.Millisecond, 170 * time.Millisecond, 250 * time.Millisecond}},
		{nil, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}},
	} {
		s := sim.New()
		var seqs []int
		var at []time.Duration
		l := NewDropOldestLink(s, tc.tr, 10*time.Millisecond, 0, func(p Packet) {
			seqs, at = append(seqs, p.Seq), append(at, s.Now())
		})
		for i := 0; i < 3; i++ {
			l.Send(Packet{Seq: i, Size: 1000})
		}
		s.Run()
		for i := range tc.want {
			if len(at) != len(tc.want) || seqs[i] != i || at[i] != tc.want[i] {
				t.Fatalf("trace %v: packets %v arrived at %v, want [0 1 2] at %v", tc.tr != nil, seqs, at, tc.want)
			}
		}
	}
}

// TestLinkDropOldest fills the bounded queue and checks the oldest waiting
// packet goes first while the newest survives; the packet in service does
// not count toward the bound.
func TestLinkDropOldest(t *testing.T) {
	s := sim.New()
	var got []int
	l := NewDropOldestLink(s, flatTrace(100), 0, 2000, func(p Packet) { got = append(got, p.Seq) })
	// The first starts serialising at once; the next three overflow the
	// 2000-byte bound by one.
	for i := 0; i < 4; i++ {
		if !l.Send(Packet{Seq: i, Size: 1000}) {
			t.Fatalf("drop-oldest refused packet %d", i)
		}
	}
	if st := l.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	s.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [0 2 3] (packet 1 was the oldest waiting)", got)
	}
}

// TestLinkClose: a closed link refuses packets and discards those waiting;
// the one in service still arrives.
func TestLinkClose(t *testing.T) {
	s := sim.New()
	var got []int
	l := NewDropOldestLink(s, flatTrace(100), time.Millisecond, 0, func(p Packet) { got = append(got, p.Seq) })
	for i := 0; i < 3; i++ {
		l.Send(Packet{Seq: i, Size: 1000})
	}
	l.Close()
	if l.Send(Packet{Seq: 3, Size: 1000}) {
		t.Fatal("closed link accepted a packet")
	}
	s.Run()
	if len(got) != 1 || got[0] != 0 || l.QueuedBytes() != 0 {
		t.Fatalf("delivered %v with %d bytes queued; want only the packet in service", got, l.QueuedBytes())
	}
}

func TestRandomLoss(t *testing.T) {
	s := sim.New()
	delivered := 0
	l := NewLink(s, flatTrace(100000), time.Millisecond, 1<<20, func(Packet) { delivered++ })
	l.SetLossRate(0.3, 42)
	for i := 0; i < 1000; i++ {
		l.Send(Packet{Seq: i, Size: 100})
	}
	s.Run()
	st := l.Stats()
	if st.Dropped < 200 || st.Dropped > 400 {
		t.Fatalf("30%% loss dropped %d of 1000", st.Dropped)
	}
	if delivered != 1000-st.Dropped {
		t.Fatalf("delivered %d + dropped %d != 1000", delivered, st.Dropped)
	}
}

package netem

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"livenas/internal/sim"
	"livenas/internal/trace"
)

// refLink is the seed Link, which scheduled each packet's queue exit and
// arrival when it was sent: the drop-tail oracle for TestLinkMatchesRef.
// Only the counters at the bottom are new; they tell the test which corner
// cases its schedules reached.
type refLink struct {
	sim      *sim.Simulator
	tr       *trace.Trace
	propDel  time.Duration
	queueCap int
	deliver  func(Packet)

	queued    int
	busyUntil time.Duration
	stats     Stats

	lossRate float64
	lossRng  *rand.Rand

	doneAt  map[time.Duration]bool // every completion instant
	outages int                    // services priced at the 1 kbps clamp
}

func (l *refLink) SetLossRate(rate float64, seed int64) {
	l.lossRate = rate
	l.lossRng = rand.New(rand.NewSource(seed))
}

func (l *refLink) Stats() Stats { return l.stats }

func (l *refLink) Send(p Packet) bool {
	l.stats.Sent++
	l.stats.BytesIn += p.Size
	if l.queued+p.Size > l.queueCap {
		l.stats.Dropped++
		return false
	}
	if l.lossRate > 0 && l.lossRng.Float64() < l.lossRate {
		l.stats.Dropped++
		return false
	}
	l.queued += p.Size
	p.SentAt = l.sim.Now()
	start := l.busyUntil
	if start < l.sim.Now() {
		start = l.sim.Now()
	}
	rate := l.tr.RateAt(start)
	if rate < 1 {
		rate = 1
		l.outages++
	}
	tx := time.Duration(float64(p.Size*8) / (rate * 1000) * float64(time.Second))
	done := start + tx
	l.busyUntil = done
	l.doneAt[done] = true
	l.sim.At(done, func() { l.queued -= p.Size })
	l.sim.At(done+l.propDel, func() {
		l.stats.Delivered++
		l.stats.BytesOut += p.Size
		l.deliver(p)
	})
	return true
}

// linkEvent is one packet's fate as a schedule observes it.
type linkEvent struct {
	seq       int
	delivered bool // false: refused at Send
	at        time.Duration
	sentAt    time.Duration
}

// linkSchedule is one seeded drop-tail workload: a trace, a link shape and
// a set of sends fixed in advance.
type linkSchedule struct {
	tr    *trace.Trace
	prop  time.Duration
	cap   int
	loss  float64
	sends []timedSend
}

type timedSend struct {
	at   time.Duration
	size int
}

// tick is 1/128 s: at the power-of-two trace rates below, serialisation
// times of multiples of 125 bytes are whole multiples of it, so sends land
// on completions.
const tick = time.Second / 128

func newLinkSchedule(seed int64) linkSchedule {
	r := rand.New(rand.NewSource(seed))
	rates := []float64{0, 0.5, 8, 16, 32, 64, 128} // 0 and 0.5: outages
	ks := make([]float64, 1+r.Intn(6))
	for i := range ks {
		if r.Intn(4) == 0 {
			ks[i] = 1 + 200*r.Float64()
		} else {
			ks[i] = rates[r.Intn(len(rates))]
		}
	}
	dts := []time.Duration{125 * time.Millisecond, 250 * time.Millisecond, time.Second}
	sc := linkSchedule{
		tr:   &trace.Trace{Name: "ref", DT: dts[r.Intn(len(dts))], Kbps: ks},
		prop: []time.Duration{0, tick, 16 * tick, time.Duration(r.Intn(int(time.Second)))}[r.Intn(4)],
		cap:  125 * (1 + r.Intn(12)),
	}
	if r.Intn(3) == 0 {
		sc.cap = 1 + r.Intn(3000)
	}
	if r.Intn(3) == 0 {
		sc.loss = 0.2
	}
	var at time.Duration
	for i, n := 0, 1+r.Intn(40); i < n; i++ {
		if r.Intn(3) != 0 { // else a burst: same instant as the last send
			at = time.Duration(r.Intn(256)) * tick
		}
		size := 125 * r.Intn(9)
		if r.Intn(4) == 0 {
			size = r.Intn(1500)
		}
		sc.sends = append(sc.sends, timedSend{at, size})
	}
	return sc
}

// sender is what a schedule drives: Link or its oracle.
type sender interface {
	Send(Packet) bool
	Stats() Stats
}

// run plays sc on l (built on s, delivering to *deliver) and returns every
// packet's fate in the order the simulator observed them. Every third
// delivered packet sends a follow-up from its arrival callback, so sends
// also come from inside the link's own events.
func (sc linkSchedule) run(s *sim.Simulator, l sender, deliver *func(Packet)) (log []linkEvent, st Stats) {
	send := func(p Packet) {
		if !l.Send(p) {
			log = append(log, linkEvent{seq: p.Seq, at: s.Now()})
		}
	}
	*deliver = func(p Packet) {
		log = append(log, linkEvent{p.Seq, true, s.Now(), p.SentAt})
		if p.Seq < 1000 && p.Seq%3 == 0 {
			send(Packet{Seq: p.Seq + 1000, Size: p.Seq * 37 % 700})
		}
	}
	for i, ts := range sc.sends {
		p := Packet{Seq: i, Size: ts.size}
		s.At(ts.at, func() { send(p) })
	}
	s.Run()
	return log, l.Stats()
}

// TestLinkMatchesRef: over 10^4 seeded drop-tail schedules the queue-based
// Link refuses, delivers and times every packet exactly as the seed Link,
// which scheduled at send time, did — through bursts over the cap, sends at
// the instant of a completion, trace outages and random loss.
func TestLinkMatchesRef(t *testing.T) {
	var coincide, overCap, lost, outages int
	for seed := int64(0); seed < 10000; seed++ {
		sc := newLinkSchedule(seed)

		s := sim.New()
		var deliver func(Packet)
		l := NewLink(s, sc.tr, sc.prop, sc.cap, func(p Packet) { deliver(p) })
		if sc.loss > 0 {
			l.SetLossRate(sc.loss, seed)
		}
		got, gotStats := sc.run(s, l, &deliver)

		rs := sim.New()
		ref := &refLink{sim: rs, tr: sc.tr, propDel: sc.prop, queueCap: sc.cap, doneAt: map[time.Duration]bool{}}
		ref.deliver = func(p Packet) { deliver(p) }
		if sc.loss > 0 {
			ref.SetLossRate(sc.loss, seed)
		}
		want, wantStats := sc.run(rs, ref, &deliver)

		if len(got) != len(want) || gotStats != wantStats {
			t.Fatalf("seed %d: %d events %+v; oracle %d events %+v", seed, len(got), gotStats, len(want), wantStats)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, event %d: %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
		for _, ts := range sc.sends {
			if ref.doneAt[ts.at] {
				coincide++
			}
		}
		if sc.loss > 0 {
			lost += wantStats.Dropped
		} else {
			overCap += wantStats.Dropped
		}
		outages += ref.outages
	}
	t.Logf("sends at a completion instant %d, cap drops %d, lossy-run drops %d, outage services %d", coincide, overCap, lost, outages)
	if coincide < 1000 || overCap < 1000 || lost < 1000 || outages < 1000 {
		t.Fatal("the schedules no longer reach every corner case they are meant to")
	}
}

// TestLinkReleasesPackets: a packet that has left the link, delivered or
// evicted, must not stay reachable from it — in the edge simulation its
// payload is a segment. The link stays alive, with packets still pending,
// while both payloads are collected.
func TestLinkReleasesPackets(t *testing.T) {
	s := sim.New()
	l := NewDropOldestLink(s, flatTrace(8), 10*time.Millisecond, 200, func(Packet) {})
	collected := make(chan string, 2)
	func() {
		for _, name := range []string{"delivered", "evicted"} {
			buf := make([]byte, 1<<20)
			runtime.SetFinalizer(&buf[0], func(*byte) { collected <- name })
			l.Send(Packet{Size: 125, Payload: buf}) // 125 ms at 8 kbps
		}
	}()
	l.Send(Packet{Size: 125}) // evicts the second, waits for the first
	s.RunUntil(140 * time.Millisecond)
	l.Send(Packet{Size: 125})
	if st := l.Stats(); st.Delivered != 1 || st.Dropped != 1 || l.QueuedBytes() != 250 {
		t.Fatalf("stats %+v, %d bytes queued; want one delivered, one evicted, two pending", st, l.QueuedBytes())
	}
	seen := map[string]bool{}
	for i := 0; i < 10 && len(seen) < 2; i++ {
		runtime.GC()
		select {
		case name := <-collected:
			seen[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(l)
	if len(seen) < 2 {
		t.Fatalf("collected only %v: a payload that left the link is still reachable from it", seen)
	}
}

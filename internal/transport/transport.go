// Package transport provides the RTP-like media transport the ingest path
// runs over: MTU packetisation with fragment headers, a send-rate pacer, a
// reassembler with FIFO loss detection, and receiver feedback reports that
// feed the GCC congestion controller (§2: WebRTC's transport is RTP with
// GCC on top; §4: LiveNAS is agnostic to the transport but consumes its
// bandwidth estimate).
package transport

import (
	"time"

	"livenas/internal/gcc"
	"livenas/internal/sim"
)

// MTU is the default payload size per packet on the emulated path.
// Reduced-resolution experiments scale it down with the world so that
// per-packet serialisation delay keeps its real-scale proportions.
const MTU = 1200

// HeaderBytes is the per-packet overhead (RTP-like header + UDP/IP).
const HeaderBytes = 32

// Kind distinguishes the two ingest substreams LiveNAS multiplexes on one
// uplink: encoded video and high-quality training patches (§4, Figure 3).
type Kind uint8

const (
	KindVideo Kind = iota
	KindPatch
)

func (k Kind) String() string {
	if k == KindPatch {
		return "patch"
	}
	return "video"
}

// Fragment is one MTU-bounded piece of a video frame or patch.
type Fragment struct {
	Kind  Kind
	ID    int // frame number or patch id (monotonic per kind)
	Index int // fragment index within the unit
	Count int // total fragments of the unit
	Data  []byte
	Meta  any // carried on fragment 0: codec/patch metadata
}

// WireSize returns the bytes this fragment occupies on the wire.
func (f Fragment) WireSize() int { return len(f.Data) + HeaderBytes }

// Packetize splits payload into mtu-sized fragments (mtu <= 0 selects the
// default). meta rides on the first fragment.
func Packetize(kind Kind, id int, payload []byte, meta any, mtu int) []Fragment {
	if mtu <= 0 {
		mtu = MTU
	}
	n := (len(payload) + mtu - 1) / mtu
	if n == 0 {
		n = 1
	}
	out := make([]Fragment, 0, n)
	for i := 0; i < n; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		f := Fragment{Kind: kind, ID: id, Index: i, Count: n, Data: payload[lo:hi]}
		if i == 0 {
			f.Meta = meta
		}
		out = append(out, f)
	}
	return out
}

// Assembled is a fully reassembled unit.
type Assembled struct {
	Kind     Kind
	ID       int
	Data     []byte
	Meta     any
	LastRecv time.Duration
}

// Reassembler reconstructs units from fragments arriving in FIFO order and
// reports units that can no longer complete (a newer unit of the same kind
// finished or started after a gap — with in-order delivery that means the
// missing fragments were dropped).
type Reassembler struct {
	// OnComplete is called once per fully received unit.
	OnComplete func(Assembled)
	// OnLoss is called once per unit abandoned due to packet loss.
	OnLoss func(kind Kind, id int)

	pending map[Kind]map[int]*partialUnit
}

type partialUnit struct {
	parts [][]byte
	meta  any
	have  int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: map[Kind]map[int]*partialUnit{
		KindVideo: {},
		KindPatch: {},
	}}
}

// Add ingests one fragment received at recvAt.
func (r *Reassembler) Add(f Fragment, recvAt time.Duration) {
	units := r.pending[f.Kind]
	u, ok := units[f.ID]
	if !ok {
		u = &partialUnit{parts: make([][]byte, f.Count)}
		units[f.ID] = u
	}
	if f.Index < 0 || f.Index >= len(u.parts) || u.parts[f.Index] != nil {
		return // duplicate or malformed
	}
	u.parts[f.Index] = f.Data
	u.have++
	if f.Meta != nil {
		u.meta = f.Meta
	}
	if u.have < len(u.parts) {
		return
	}
	// Complete: any older incomplete unit of this kind is lost (FIFO path).
	for id, p := range units {
		if id < f.ID && p.have < len(p.parts) {
			delete(units, id)
			if r.OnLoss != nil {
				r.OnLoss(f.Kind, id)
			}
		}
	}
	delete(units, f.ID)
	var data []byte
	for _, p := range u.parts {
		data = append(data, p...)
	}
	if r.OnComplete != nil {
		r.OnComplete(Assembled{Kind: f.Kind, ID: f.ID, Data: data, Meta: u.meta, LastRecv: recvAt})
	}
}

// PendingUnits reports how many units are partially assembled.
func (r *Reassembler) PendingUnits() int {
	n := 0
	for _, m := range r.pending {
		n += len(m)
	}
	return n
}

// Pacer releases enqueued fragments onto the wire at a configured rate,
// smoothing the encoder's bursty frame output (Figure 3's "Pacer").
type Pacer struct {
	sim    *sim.Simulator
	send   func(Fragment)
	rate   float64 // kbps
	queue  []Fragment
	queued int // bytes
	armed  bool
	nextAt time.Duration
}

// NewPacer creates a pacer that calls send for each released fragment.
func NewPacer(s *sim.Simulator, initialKbps float64, send func(Fragment)) *Pacer {
	return &Pacer{sim: s, send: send, rate: initialKbps}
}

// SetRateKbps updates the pacing rate (driven by GCC's target).
func (p *Pacer) SetRateKbps(r float64) {
	if r < 1 {
		r = 1
	}
	p.rate = r
}

// QueuedBytes reports bytes waiting in the pacer.
func (p *Pacer) QueuedBytes() int { return p.queued }

// Enqueue adds a fragment to the pacing queue.
func (p *Pacer) Enqueue(f Fragment) {
	p.queue = append(p.queue, f)
	p.queued += f.WireSize()
	p.arm()
}

func (p *Pacer) arm() {
	if p.armed || len(p.queue) == 0 {
		return
	}
	p.armed = true
	at := p.nextAt
	if at < p.sim.Now() {
		at = p.sim.Now()
	}
	p.sim.At(at, p.fire)
}

func (p *Pacer) fire() {
	p.armed = false
	if len(p.queue) == 0 {
		return
	}
	f := p.queue[0]
	p.queue = p.queue[1:]
	p.queued -= f.WireSize()
	// Next departure spaced by this packet's serialisation time at the
	// pacing rate.
	gap := time.Duration(float64(f.WireSize()*8) / (p.rate * 1000) * float64(time.Second))
	p.nextAt = p.sim.Now() + gap
	p.send(f)
	p.arm()
}

// FeedbackCollector runs at the receiver: it records per-packet delivery
// and emits periodic reports (acks plus a loss count inferred from wire
// sequence gaps) the sender feeds into gcc.Controller.
type FeedbackCollector struct {
	Interval time.Duration

	acks       []gcc.Ack
	maxSeq     int
	prevMaxSeq int
	started    bool
}

// NewFeedbackCollector creates a collector with the given report interval
// (WebRTC uses ~100 ms transport-wide feedback).
func NewFeedbackCollector(interval time.Duration) *FeedbackCollector {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &FeedbackCollector{Interval: interval, maxSeq: -1, prevMaxSeq: -1}
}

// OnPacket records a delivered wire packet.
func (fc *FeedbackCollector) OnPacket(seq, size int, sentAt, recvAt time.Duration) {
	fc.acks = append(fc.acks, gcc.Ack{Seq: seq, Size: size, SentAt: sentAt, RecvAt: recvAt})
	if seq > fc.maxSeq {
		fc.maxSeq = seq
	}
	fc.started = true
}

// Report drains the window and returns (acks, lostCount).
func (fc *FeedbackCollector) Report() ([]gcc.Ack, int) {
	acks := fc.acks
	fc.acks = nil
	lost := 0
	if fc.started {
		expected := fc.maxSeq - fc.prevMaxSeq
		if got := len(acks); expected > got {
			lost = expected - got
		}
		fc.prevMaxSeq = fc.maxSeq
	}
	return acks, lost
}

package edge

import (
	"fmt"
	"sort"
	"time"

	"livenas/internal/abr"
	"livenas/internal/sim"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

// Source describes the enhanced output one channel publishes in a
// simulation: a fixed ladder, a fixed segment duration, and Count segments
// of synthetic (deterministic, content-addressable) payload sized to each
// rung's bitrate.
type Source struct {
	Channel string
	SegDur  time.Duration
	Rungs   []RungInfo
	Count   int
	StartAt time.Duration
}

// payloads builds the per-rung payloads for one segment index.
func (s *Source) payloads(index int) [][]byte {
	out := make([][]byte, len(s.Rungs))
	for r, rung := range s.Rungs {
		n := int(rung.Kbps * s.SegDur.Seconds() * 1000 / 8)
		out[r] = SyntheticPayload(s.Channel, index, r, n)
	}
	return out
}

// SimLinks shapes the tree's connections, netem-style.
type SimLinks struct {
	OriginKbps  float64       // origin -> L1 relay serialisation rate
	RelayKbps   float64       // relay -> relay serialisation rate
	HopDelay    time.Duration // propagation per relay hop
	ViewerKbps  []float64     // per-viewer downlink rates, cycled by index
	ViewerDelay time.Duration // last-hop propagation
	QueueBytes  int           // drop-oldest bound per viewer downlink
}

// SimConfig is one edge fan-out experiment: one channel, a two-level relay
// tree, N viewers.
type SimConfig struct {
	Source  *Source
	Viewers int
	// Fanout bounds children per relay: viewers per L2 relay and L2 relays
	// per L1 relay (default 8).
	Fanout int
	// Window is the playlist's rolling window in segments (default 6).
	Window int
	Links  SimLinks
	// NewAlg builds each viewer's ABR instance (default RobustMPC).
	NewAlg func() abr.Algorithm
	// Direct removes the relay tree: every viewer connects straight to the
	// origin. The baseline the egress-savings number compares against.
	Direct    bool
	Telemetry *telemetry.Registry
}

// Result is one simulation's outcome. All fields are deterministic
// functions of the config: the latency quantiles are exact order
// statistics over every viewer delivery, in virtual time.
type Result struct {
	Viewers  int
	RelaysL1 int
	RelaysL2 int
	Fanout   int

	SegmentsPublished int // segment indexes cut at the origin
	Delivered         int // segments accepted by viewers
	Skipped           int
	Duplicates        int
	Timeouts          int
	DroppedMsgs       int // drop-oldest evictions across viewer downlinks

	OriginEgressBytes int64
	RelayEgressBytes  int64
	ViewerBytes       int64

	StallSec    float64 // total rebuffer time across viewers
	MeanKbps    float64 // mean chosen network bitrate over deliveries
	MeanEffKbps float64 // mean effective bitrate (the LiveNAS quality boost)

	DeliveryP50 time.Duration // publish -> viewer, virtual time
	DeliveryP99 time.Duration
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Fanout <= 0 {
		c.Fanout = 8
	}
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.NewAlg == nil {
		c.NewAlg = func() abr.Algorithm { return &abr.RobustMPC{} }
	}
	l := &c.Links
	if l.OriginKbps <= 0 {
		l.OriginKbps = 200_000
	}
	if l.RelayKbps <= 0 {
		l.RelayKbps = 100_000
	}
	if l.HopDelay <= 0 {
		l.HopDelay = 10 * time.Millisecond
	}
	if len(l.ViewerKbps) == 0 {
		l.ViewerKbps = []float64{6000}
	}
	if l.ViewerDelay <= 0 {
		l.ViewerDelay = 20 * time.Millisecond
	}
	if l.QueueBytes <= 0 {
		l.QueueBytes = 2 << 20
	}
	return c
}

// DefaultViewerKbps draws n viewer downlink rates from the FCC broadband
// distribution (trace.FCCDownlink's family), deterministically by seed.
func DefaultViewerKbps(n int, seed int64) []float64 {
	tr := trace.FCCDownlink(seed, time.Duration(n+1)*time.Second)
	out := make([]float64, n)
	for i := range out {
		out[i] = tr.RateAt(time.Duration(i) * time.Second)
	}
	return out
}

// RunSim executes one edge fan-out simulation to completion and returns
// its aggregate. Everything runs on a private virtual clock; the outcome
// is byte-for-byte reproducible for a given config.
func RunSim(cfg SimConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	src := cfg.Source
	if src == nil || src.Count <= 0 || len(src.Rungs) == 0 {
		return nil, fmt.Errorf("edge: sim needs a source with segments and rungs")
	}
	if cfg.Viewers <= 0 {
		return nil, fmt.Errorf("edge: sim needs at least one viewer")
	}

	s := sim.New()
	clock := SimClock{S: s}
	tel := NewTelemetry(cfg.Telemetry)

	origin := NewOrigin(clock, cfg.Window, tel)
	origin.AddChannel(src.Channel, src.SegDur, src.Rungs)

	// Build the tree: origin -> L1 relays -> L2 relays -> viewers. Interior
	// links are symmetric (requests upstream are small; the shared shape
	// keeps the config surface tight); viewer downlinks carry the
	// drop-oldest bound.
	relayLink := func(kbps float64) transport.SimLinkConfig {
		return transport.SimLinkConfig{Kbps: kbps, Delay: cfg.Links.HopDelay}
	}

	nL2 := (cfg.Viewers + cfg.Fanout - 1) / cfg.Fanout
	nL1 := (nL2 + cfg.Fanout - 1) / cfg.Fanout
	if cfg.Direct {
		nL1, nL2 = 0, 0
	}

	relays := make([]*Relay, 0, nL1+nL2)
	newRelayUnder := func(parent func(transport.Conn, *wire.Message), kbps float64) *Relay {
		pc, cc := transport.NewSimConnPair(s, relayLink(kbps), relayLink(kbps))
		pc.OnMessage(func(m *wire.Message) { parent(pc, m) })
		r := NewRelay(clock, cc, tel)
		cc.OnMessage(r.HandleUpstream)
		relays = append(relays, r)
		return r
	}

	l1 := make([]*Relay, nL1)
	for i := range l1 {
		l1[i] = newRelayUnder(origin.Handle, cfg.Links.OriginKbps)
		l1[i].Subscribe(src.Channel)
	}
	l2 := make([]*Relay, nL2)
	for i := range l2 {
		parent := l1[i/cfg.Fanout]
		l2[i] = newRelayUnder(parent.HandleDownstream, cfg.Links.RelayKbps)
		l2[i].Subscribe(src.Channel)
	}

	viewers := make([]*Viewer, cfg.Viewers)
	downlinks := make([]*transport.SimConn, cfg.Viewers)
	for i := range viewers {
		v := NewViewer(clock, ViewerConfig{
			Channel: src.Channel,
			Alg:     cfg.NewAlg(),
		}, tel)
		down := transport.SimLinkConfig{
			Kbps:       cfg.Links.ViewerKbps[i%len(cfg.Links.ViewerKbps)],
			Delay:      cfg.Links.ViewerDelay,
			QueueBytes: cfg.Links.QueueBytes,
		}
		up := transport.SimLinkConfig{Kbps: cfg.Links.ViewerKbps[i%len(cfg.Links.ViewerKbps)], Delay: cfg.Links.ViewerDelay}
		pc, vc := transport.NewSimConnPair(s, down, up)
		var parent func(transport.Conn, *wire.Message)
		if cfg.Direct {
			parent = origin.Handle
		} else {
			parent = l2[i/cfg.Fanout].HandleDownstream
		}
		pc.OnMessage(func(m *wire.Message) { parent(pc, m) })
		vc.OnMessage(v.Handle)
		viewers[i], downlinks[i] = v, pc

		// Viewers join spread across the first segment interval, in index
		// order (deterministic: distinct times, FIFO tiebreak otherwise).
		at := src.StartAt + time.Duration(i)*src.SegDur/time.Duration(cfg.Viewers)
		vv := v
		conn := transport.Conn(vc)
		s.At(at, func() { vv.Attach(conn) })
	}

	for i := 0; i < src.Count; i++ {
		idx := i
		s.At(src.StartAt+time.Duration(i)*src.SegDur, func() {
			origin.Publish(src.Channel, src.payloads(idx))
		})
	}

	// Run to completion plus a drain margin for in-flight fetches.
	end := src.StartAt + time.Duration(src.Count)*src.SegDur + 8*src.SegDur
	s.RunUntil(end)

	res := &Result{
		Viewers:           cfg.Viewers,
		RelaysL1:          nL1,
		RelaysL2:          nL2,
		Fanout:            cfg.Fanout,
		SegmentsPublished: src.Count,
		OriginEgressBytes: origin.EgressBytes(),
	}
	for _, r := range relays {
		res.RelayEgressBytes += r.EgressBytes()
	}
	for _, d := range downlinks {
		res.DroppedMsgs += d.Dropped()
	}
	var lats []time.Duration
	for _, v := range viewers {
		st := v.Finish()
		res.Delivered += st.Played
		res.Skipped += st.Skipped
		res.Duplicates += st.Duplicates
		res.Timeouts += st.Timeouts
		res.ViewerBytes += st.Bytes
		res.StallSec += st.Stall.Seconds()
		res.MeanKbps += st.KbpsSum
		res.MeanEffKbps += st.EffSum
		lats = append(lats, st.Latencies...) // read after RunUntil returned; the single-threaded simulator has quiesced
	}
	if res.Delivered > 0 {
		res.MeanKbps /= float64(res.Delivered)
		res.MeanEffKbps /= float64(res.Delivered)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		res.DeliveryP50 = lats[(n-1)*50/100]
		res.DeliveryP99 = lats[(n-1)*99/100]
	}
	return res, nil
}

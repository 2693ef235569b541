package edge

import (
	"bytes"
	"net"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"livenas/internal/sim"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

func testRungs() []RungInfo {
	return []RungInfo{
		{Name: "240p", Kbps: 400, EffectiveKbps: 520},
		{Name: "480p", Kbps: 1200, EffectiveKbps: 1560},
		{Name: "720p", Kbps: 2400, EffectiveKbps: 3120},
	}
}

func testSource(count int) *Source {
	return &Source{
		Channel: "ch000",
		SegDur:  time.Second,
		Rungs:   testRungs(),
		Count:   count,
		StartAt: time.Second,
	}
}

// TestPlaylistEncodeDeterministic pins the byte-identical playlist
// contract: the same window encodes to the same bytes, on any node, every
// time — relays forward the raw bytes verbatim, so the whole tree serves
// one encoding.
func TestPlaylistEncodeDeterministic(t *testing.T) {
	build := func() []byte {
		g := NewSegmenter("ch000", time.Second, testRungs(), 4)
		for i := 0; i < 7; i++ {
			var payloads [][]byte
			for r, rung := range testRungs() {
				payloads = append(payloads, SyntheticPayload("ch000", i, r, int(rung.Kbps*125)))
			}
			g.Push(time.Duration(i)*time.Second, payloads)
		}
		return g.Playlist().Encode()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical windows encoded to different bytes")
	}
	pl, err := DecodePlaylist(a)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Oldest() != 3 || pl.LiveEdge() != 6 {
		t.Fatalf("window [%d,%d], want [3,6]", pl.Oldest(), pl.LiveEdge())
	}
	// Decoding loses nothing and re-encoding reproduces the bytes, whatever
	// the playlist holds.
	for i, want := range roundTripPlaylists() {
		raw := want.Encode()
		got, err := DecodePlaylist(raw)
		if err != nil {
			t.Fatalf("playlist %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("playlist %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
		if !bytes.Equal(got.Encode(), raw) {
			t.Fatalf("playlist %d re-encoded to different bytes", i)
		}
	}
}

// TestSegmenterWindow checks rolling eviction and content addressing.
func TestSegmenterWindow(t *testing.T) {
	g := NewSegmenter("ch000", time.Second, testRungs(), 3)
	for i := 0; i < 5; i++ {
		g.Push(time.Duration(i)*time.Second, [][]byte{{1}, {2}, {3}})
	}
	if g.Segment(1, 0) != nil {
		t.Fatal("segment 1 should have left the window")
	}
	s := g.Segment(3, 2)
	if s == nil {
		t.Fatal("segment 3 missing")
	}
	if want := SegmentID("ch000", 3, 2, []byte{3}); s.ID != want {
		t.Fatalf("ID %s, want %s", s.ID, want)
	}
	if g.Segment(3, 9) != nil {
		t.Fatal("out-of-range rung must be nil")
	}
}

// TestDecodePlaylistMalformed checks the error-not-panic contract on
// network-supplied playlist bytes, and that the one accepted encoding of a
// playlist is the canonical one.
func TestDecodePlaylistMalformed(t *testing.T) {
	for _, b := range [][]byte{{0}, {0xFF, 0xA0, 0x13, 0x07}} {
		if _, err := DecodePlaylist(b); err == nil {
			t.Fatalf("decode of %v should error", b)
		}
	}
	for _, bad := range malformedPlaylists() {
		if p, err := DecodePlaylist(bad.body); err == nil || p != nil {
			t.Errorf("%s: got %+v, %v; want a decode error", bad.name, p, err)
		}
	}
}

// TestSyntheticPayloadDeterministic pins cross-process content stability.
func TestSyntheticPayloadDeterministic(t *testing.T) {
	a := SyntheticPayload("ch000", 4, 1, 256)
	b := SyntheticPayload("ch000", 4, 1, 256)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	if bytes.Equal(a, SyntheticPayload("ch000", 4, 2, 256)) {
		t.Fatal("different rungs must differ")
	}
}

// TestSyntheticPayloadMatchesRef holds the block-wise generator to the seed's
// byte-at-a-time loop, at lengths on both sides of every block boundary.
func TestSyntheticPayloadMatchesRef(t *testing.T) {
	ref := func(channel string, index, rung, n int) []byte {
		x := uint64(14695981039346656037)
		for _, b := range []byte(channel + "/" + strconv.Itoa(index) + "/" + strconv.Itoa(rung)) {
			x = (x ^ uint64(b)) * 1099511628211
		}
		out := make([]byte, n)
		for i := range out {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			out[i] = byte((x * 2685821657736338717) >> 56)
		}
		return out
	}
	for _, n := range []int{0, 1, 255, 256, 257, 511, 512, 513, 50_000} {
		if got, want := SyntheticPayload("ch000", 7, 2, n), ref("ch000", 7, 2, n); !bytes.Equal(got, want) {
			t.Errorf("n=%d: block-wise bytes differ from the reference loop", n)
		}
	}
}

func edgeSimCfg(viewers int) SimConfig {
	return SimConfig{
		Source:  testSource(12),
		Viewers: viewers,
		Fanout:  4,
		Links: SimLinks{
			ViewerKbps: DefaultViewerKbps(viewers, 7),
		},
	}
}

// TestRunSimDelivers sanity-checks one fan-out run end to end: the tree is
// two relay levels deep, segments reach viewers, and the publish->viewer
// latency is positive virtual time.
func TestRunSimDelivers(t *testing.T) {
	res, err := RunSim(edgeSimCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.RelaysL2 != 3 || res.RelaysL1 != 1 {
		t.Fatalf("tree %d/%d relays, want 1/3", res.RelaysL1, res.RelaysL2)
	}
	if res.Delivered < 10*8 {
		t.Fatalf("delivered %d segments across 10 viewers, want >= 80", res.Delivered)
	}
	if res.DeliveryP50 <= 0 || res.DeliveryP99 < res.DeliveryP50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", res.DeliveryP50, res.DeliveryP99)
	}
	if res.MeanEffKbps <= res.MeanKbps {
		t.Fatalf("effective %0.f <= network %0.f kbps: ladder boost lost", res.MeanEffKbps, res.MeanKbps)
	}
}

// TestRunSimDeterministic runs the same config concurrently and serially
// and requires identical results — the edge experiment's table rows are
// byte-identical at any worker count because this holds.
func TestRunSimDeterministic(t *testing.T) {
	results := make([]*Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunSim(edgeSimCfg(10))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("run %d differs:\n%+v\n%+v", i, results[0], results[i])
		}
	}
}

// TestRunSimFanOutSavesEgress compares the relay tree against every viewer
// hitting the origin directly: the tree must cut origin egress while
// keeping viewers fed.
func TestRunSimFanOutSavesEgress(t *testing.T) {
	tree, err := RunSim(edgeSimCfg(16))
	if err != nil {
		t.Fatal(err)
	}
	direct := edgeSimCfg(16)
	direct.Direct = true
	flat, err := RunSim(direct)
	if err != nil {
		t.Fatal(err)
	}
	if flat.OriginEgressBytes <= 2*tree.OriginEgressBytes {
		t.Fatalf("origin egress: direct %d vs tree %d — fan-out saved too little",
			flat.OriginEgressBytes, tree.OriginEgressBytes)
	}
	if tree.Delivered < flat.Delivered/2 {
		t.Fatalf("tree delivered %d vs direct %d: relays starved viewers", tree.Delivered, flat.Delivered)
	}
}

// TestRunSimBackpressure pins the drop-oldest recovery path: a viewer
// downlink far below the lowest rung must drop messages, and the viewer
// must keep converging on the live edge by skipping, not wedging.
func TestRunSimBackpressure(t *testing.T) {
	cfg := edgeSimCfg(4)
	// 120 kbps against a 400 kbps floor rung: one segment serialises for
	// ~3.4s, past the 2-segment request timeout, so fetches expire and the
	// live edge outruns the viewer.
	cfg.Links.ViewerKbps = []float64{120}
	cfg.Links.QueueBytes = 40 << 10
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("starved viewers still deliver some segments")
	}
	if res.Timeouts == 0 {
		t.Fatalf("no fetch timeouts under 120 kbps downlinks: %+v", res)
	}
	if res.Skipped == 0 {
		t.Fatalf("viewers never skipped toward the live edge: %+v", res)
	}
}

// recordConn is a Conn that keeps what the viewer sends and delivers
// nothing: the test feeds the viewer's Handle itself.
type recordConn struct{ sent []*wire.Message }

func (c *recordConn) Send(m *wire.Message) error {
	c.sent = append(c.sent, m)
	return nil
}
func (c *recordConn) Recv() (*wire.Message, error)   { return nil, transport.ErrClosed }
func (c *recordConn) Close() error                   { return nil }
func (c *recordConn) SetRecvTimeout(d time.Duration) {}

// TestViewerLivePolicy pins the playback rules every viewer follows
// (startBehind, startupSegments, timeoutSegments and BufferCap's default):
// it joins one segment behind the live edge, starts playing once the buffer
// holds one segment duration, gives up on a fetch after exactly two segment
// durations, and stops fetching at 8 s of buffer.
func TestViewerLivePolicy(t *testing.T) {
	const segDur = time.Second
	s := sim.New()
	v := NewViewer(SimClock{S: s}, ViewerConfig{Channel: "ch000"}, NewTelemetry(nil))
	conn := &recordConn{}
	if err := v.Attach(conn); err != nil {
		t.Fatal(err)
	}
	g := NewSegmenter("ch000", segDur, testRungs(), 4)
	push := func(n int) { // publishes segments up to n-1, then the playlist
		for i := g.Playlist().LiveEdge() + 1; i < n; i++ {
			var payloads [][]byte
			for r := range testRungs() {
				payloads = append(payloads, SyntheticPayload("ch000", i, r, 1000))
			}
			g.Push(time.Duration(i)*segDur, payloads)
		}
		v.Handle(&wire.Message{Type: wire.MsgPlaylist, Channel: "ch000", Data: g.Playlist().Encode()})
	}
	lastReq := func() *wire.Message {
		m := conn.sent[len(conn.sent)-1]
		if m.Type != wire.MsgSegmentReq {
			t.Fatalf("last message sent is type %v, want a segment request", m.Type)
		}
		return m
	}
	deliver := func(req *wire.Message, dur time.Duration) {
		v.Handle(&wire.Message{Type: wire.MsgSegment, Channel: "ch000", FrameID: req.FrameID,
			Rung: req.Rung, SegDurUS: dur.Microseconds(), Data: []byte{1}})
	}
	playing := func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		return v.playing
	}

	push(6)
	// Joined one segment behind the live edge: the first fetch is the
	// newest complete segment, not the window's oldest.
	first := lastReq()
	if edge := g.Playlist().LiveEdge(); first.FrameID != edge {
		t.Fatalf("first fetch is segment %d, want the live edge %d", first.FrameID, edge)
	}

	// An unanswered fetch is outstanding for two segment durations.
	t0 := s.Now()
	s.RunUntil(t0 + 2*segDur - 1)
	if v.Finish().Timeouts != 0 || !v.outstanding {
		t.Fatalf("fetch timed out before 2 segment durations: %+v", v.Finish())
	}
	s.RunUntil(t0 + 2*segDur)
	if n := v.Finish().Timeouts; n != 1 {
		t.Fatalf("%d timeouts at 2 segment durations, want 1", n)
	}

	// The viewer re-requests the same segment; half a segment duration of
	// buffer does not start playback, a whole one does.
	retry := lastReq()
	if retry.FrameID != first.FrameID {
		t.Fatalf("re-requested segment %d, want %d", retry.FrameID, first.FrameID)
	}
	deliver(retry, segDur/2)
	if playing() {
		t.Fatal("playing with half a segment duration buffered")
	}
	push(7)
	deliver(lastReq(), segDur/2)
	if !playing() {
		t.Fatal("not playing with one segment duration buffered")
	}

	// No virtual time passes, so nothing drains: each new segment is
	// fetched until one more would lift the buffer past 8 s.
	for n := 8; ; n++ {
		sent := len(conn.sent)
		push(n)
		if len(conn.sent) == sent {
			break
		}
		deliver(lastReq(), segDur)
	}
	if v.buffer != 8*time.Second {
		t.Fatalf("stopped fetching at %v buffered, want 8s", v.buffer)
	}
}

// TestViewerReconnectResumes is the relay-failover contract: a viewer cut
// off mid-stream re-attaches (to another relay) and resumes from the
// rolling playlist without re-playing any segment.
func TestViewerReconnectResumes(t *testing.T) {
	s := sim.New()
	clock := SimClock{S: s}
	tel := NewTelemetry(nil)
	src := testSource(14)

	origin := NewOrigin(clock, 6, tel)
	origin.AddChannel(src.Channel, src.SegDur, src.Rungs)

	link := transport.SimLinkConfig{Kbps: 50_000, Delay: 5 * time.Millisecond}
	newRelay := func() *Relay {
		pc, cc := transport.NewSimConnPair(s, link, link)
		pc.OnMessage(func(m *wire.Message) { origin.Handle(pc, m) })
		r := NewRelay(clock, cc, tel)
		cc.OnMessage(r.HandleUpstream)
		return r
	}
	ra, rb := newRelay(), newRelay()

	var played []int
	v := NewViewer(clock, ViewerConfig{
		Channel: src.Channel,
		OnPlay:  func(index, rung int) { played = append(played, index) },
	}, tel)

	attachTo := func(r *Relay) *transport.SimConn {
		down := transport.SimLinkConfig{Kbps: 8000, Delay: 10 * time.Millisecond}
		pc, vc := transport.NewSimConnPair(s, down, down)
		pc.OnMessage(func(m *wire.Message) { r.HandleDownstream(pc, m) })
		vc.OnMessage(v.Handle)
		return vc
	}

	for i := 0; i < src.Count; i++ {
		idx := i
		s.At(src.StartAt+time.Duration(i)*src.SegDur, func() {
			origin.Publish(src.Channel, src.payloads(idx))
		})
	}

	var c1 *transport.SimConn
	s.At(src.StartAt, func() { c1 = attachTo(ra); v.Attach(c1) })
	// Mid-stream: the first relay dies; the viewer re-attaches elsewhere.
	s.At(src.StartAt+5*src.SegDur+300*time.Millisecond, func() {
		c1.Close()
		v.Attach(attachTo(rb))
	})
	s.RunUntil(src.StartAt + time.Duration(src.Count+8)*src.SegDur)

	if len(played) < 8 {
		t.Fatalf("played only %v", played)
	}
	seen := map[int]bool{}
	for i, idx := range played {
		if seen[idx] {
			t.Fatalf("segment %d played twice: %v", idx, played)
		}
		seen[idx] = true
		if i > 0 && idx <= played[i-1]-1 && idx < played[i-1] {
			t.Fatalf("playback went backwards: %v", played)
		}
	}
	st := v.Finish()
	if st.Played != len(played) {
		t.Fatalf("stats played %d, hook saw %d", st.Played, len(played))
	}
}

// TestEdgeTelemetry checks the edge_* metric family records under a live
// registry.
func TestEdgeTelemetry(t *testing.T) {
	reg := telemetry.New()
	cfg := edgeSimCfg(6)
	cfg.Telemetry = reg
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("edge_segments_published").Value(); n == 0 {
		t.Fatal("edge_segments_published stayed zero")
	}
	if n := reg.Counter("edge_segments_delivered").Value(); n == 0 {
		t.Fatal("edge_segments_delivered stayed zero")
	}
	if reg.Histogram("edge_delivery_latency_ms", telemetry.ExpBuckets(1, 2, 14)).Count() == 0 {
		t.Fatal("edge_delivery_latency_ms empty")
	}
}

// TestEdgeOverSockets drives the same actors over real connections: origin,
// one relay and a viewer joined by net.Pipe pairs, each pumped by its own
// goroutine — the exact shape cmd/livenas-edge runs, minus the kernel. Also
// the race detector's view of the actors' locking.
func TestEdgeOverSockets(t *testing.T) {
	clock := NewWallClock()
	tel := NewTelemetry(nil)
	rungs := testRungs()
	segDur := 40 * time.Millisecond

	origin := NewOrigin(clock, 6, tel)
	origin.AddChannel("ch000", segDur, rungs)

	// Sends must be asynchronous over net.Pipe (zero buffering): wrap both
	// ends in QueuedConn, exactly as the cmd binaries do on real sockets.
	pipe := func() (transport.Conn, transport.Conn) {
		a, b := net.Pipe()
		return transport.NewQueuedConn(transport.NewNetConn(a), 0),
			transport.NewQueuedConn(transport.NewNetConn(b), 0)
	}

	// Origin <- relay.
	oc, ruc := pipe()
	relay := NewRelay(clock, ruc, tel)
	go transport.Pump(oc, func(m *wire.Message) { origin.Handle(oc, m) })
	go transport.Pump(ruc, relay.HandleUpstream)

	// Relay <- viewer.
	rc, vc := pipe()
	playedc := make(chan int, 64)
	v := NewViewer(clock, ViewerConfig{
		Channel: "ch000",
		OnPlay:  func(index, rung int) { playedc <- index },
	}, tel)
	go transport.Pump(rc, func(m *wire.Message) { relay.HandleDownstream(rc, m) })
	go transport.Pump(vc, v.Handle)

	if err := v.Attach(vc); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			var payloads [][]byte
			for r := range rungs {
				payloads = append(payloads, SyntheticPayload("ch000", i, r, 2000))
			}
			origin.Publish("ch000", payloads)
			time.Sleep(segDur)
		}
	}()

	var played []int
	deadline := time.After(5 * time.Second)
	for len(played) < 5 {
		select {
		case idx := <-playedc:
			played = append(played, idx)
		case <-deadline:
			t.Fatalf("timed out; played %v", played)
		}
	}
	<-done
	oc.Close()
	rc.Close()
	for i := 1; i < len(played); i++ {
		if played[i] <= played[i-1] {
			t.Fatalf("out-of-order playback over sockets: %v", played)
		}
	}
}

// TestEdgeSoak scales the fan-out sim by EDGE_SOAK_VIEWERS (the nightly
// race-tier soak runs 256); the default stays cheap for the tier-1 wall.
func TestEdgeSoak(t *testing.T) {
	n := 24
	if s := os.Getenv("EDGE_SOAK_VIEWERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("EDGE_SOAK_VIEWERS=%q: %v", s, err)
		}
		n = v
	} else if testing.Short() {
		t.Skip("short mode")
	}
	cfg := edgeSimCfg(n)
	cfg.Source.Count = 20
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < n*10 {
		t.Fatalf("delivered %d across %d viewers", res.Delivered, n)
	}
}

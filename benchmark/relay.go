package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livenas/internal/abr"
	"livenas/internal/edge"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

// relay_tcp: an in-process edge.Origin and edge.Relay wired over loopback
// TCP with transport.NetConn, QueuedConn and Pump the way
// cmd/livenas-server.serveEdge and cmd/livenas-edge wire them, and two
// client connections (one goroutine each) in a closed loop: the generator
// publishes index i, both clients wait for the playlist, request
// (i, i mod rungs) and verify the bytes against edge.SegmentID; index i+1 is
// published once both have index i. The bulk leg runs the full ladder
// (50-560 KB segments, per-byte cost), the small leg a one-rung channel of
// 256-byte payloads (per-message cost).

var (
	opPublishBulk  = defOp("edge", "origin_publish_tcp_bulk")
	opPublishSmall = defOp("edge", "origin_publish_tcp_small")
	opOriginTCP    = defOp("edge", "origin_handle_tcp")
	opRelayUpTCP   = defOp("edge", "relay_up_tcp")
	opRelayDownTCP = defOp("edge", "relay_down_tcp")
	opTCPSend      = defOp("transport", "tcp_send")
	opTCPRecv      = defOp("transport", "tcp_recv_wait")
	opClientRecv   = defOp("transport", "client_recv_wait")
	opClientSend   = defOp("transport", "client_send")
	opClientPlay   = defOp("edge", "client_playlist_decode")
	opClientVerify = defOp("bench", "client_verify")
	opClientLoop   = defOp("bench", "client")
	opPumpLoop     = defOp("bench", "pump")
)

const (
	bulkChannel  = "bulk"
	smallChannel = "small"
	relayClients = 2
	originQueue  = 4 << 20 // cmd/livenas-server.serveEdge
	relayQueue   = 1 << 20 // cmd/livenas-edge -queue default

	// A stuck round trip fails the run instead of hanging it.
	relayRecvBudget = 20 * time.Second
)

// relayInputs is relay_tcp's repeatable set-up: the payload pools.
type relayInputs struct {
	bulkRungs  []edge.RungInfo
	smallRungs []edge.RungInfo
	bulk       [][][]byte // [pool slot][rung]payload
	small      [][][]byte
}

func buildRelayInputs(sz sizes, seed int64) *relayInputs {
	in := &relayInputs{smallRungs: []edge.RungInfo{{Name: "tiny", Kbps: 2, EffectiveKbps: 2}}}
	for _, r := range abr.Ladder(false) {
		in.bulkRungs = append(in.bulkRungs, edge.RungInfo{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps})
	}
	rng := rand.New(rand.NewSource(7000 + seed))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for s := 0; s < sz.PayloadPool; s++ {
		var slot [][]byte
		for _, r := range in.bulkRungs {
			slot = append(slot, fill(int(r.Kbps*1000/8))) // one second of the rung
		}
		in.bulk = append(in.bulk, slot)
		in.small = append(in.small, [][]byte{fill(sz.SmallBytes)})
	}
	return in
}

// spanConn sits between a QueuedConn and its NetConn so that the writer
// goroutine's sends (wire encode + socket write) and the pump goroutine's
// receives (wait + socket read + wire decode) are spans. Each side is used
// by exactly one goroutine, which creates its own track on first use.
type spanConn struct {
	transport.Conn
	tr             *Tracer
	name           string
	sendTk, recvTk *Track
}

func (c *spanConn) Send(m *wire.Message) error {
	if c.sendTk == nil {
		c.sendTk = c.tr.Track(c.name + "/writer")
	}
	c.sendTk.Begin(opTCPSend)
	err := c.Conn.Send(m)
	c.sendTk.End()
	return err
}

func (c *spanConn) Recv() (*wire.Message, error) {
	c.recvTk.Begin(opTCPRecv)
	m, err := c.Conn.Recv()
	c.recvTk.End()
	return m, err
}

// relayRig is one iteration's topology. Every goroutine it starts is joined
// by close.
type relayRig struct {
	tr     *Tracer
	origin *edge.Origin
	relay  *edge.Relay

	wg        sync.WaitGroup
	listeners []net.Listener
	mu        sync.Mutex
	queued    []*transport.QueuedConn // closed by close; unblocks the pumps
	clients   []*transport.NetConn

	originReqs, relayReqs atomic.Int64 // MsgSegmentReq seen by each tier
	dropped               int64
}

func (r *relayRig) track(q *transport.QueuedConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued = append(r.queued, q)
}

// tracked returns the queued connections registered from index from on.
func (r *relayRig) tracked(from int) []*transport.QueuedConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*transport.QueuedConn(nil), r.queued[from:]...)
}

// pump is the per-connection delivery loop of the cmds: transport.Pump
// feeding an actor's handler, one span per handled message.
func (r *relayRig) pump(name string, sc *spanConn, q *transport.QueuedConn, op opID, h func(*wire.Message)) {
	tk := r.tr.Track(name)
	sc.recvTk = tk
	tk.Begin(opPumpLoop)
	// Pump returns when close tears the connection down.
	_ = transport.Pump(q, func(m *wire.Message) {
		tk.Begin(op)
		h(m)
		tk.End()
	})
	tk.End()
}

func newRelayRig(tr *Tracer, in *relayInputs) (*relayRig, error) {
	r := &relayRig{tr: tr}
	clock := edge.NewWallClock()
	r.origin = edge.NewOrigin(clock, 6, edge.NewTelemetry(nil))
	r.origin.AddChannel(bulkChannel, time.Second, in.bulkRungs)
	r.origin.AddChannel(smallChannel, time.Second, in.smallRungs)

	// Origin endpoint: cmd/livenas-server.serve + serveEdge.
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.listeners = append(r.listeners, originLn)
	r.accept(originLn, func(i int, c net.Conn) {
		sc := &spanConn{Conn: transport.NewNetConn(c), tr: tr, name: fmt.Sprintf("origin/sub%d", i)}
		first, err := sc.Conn.Recv()
		if err != nil || first.Type != wire.MsgSubscribe {
			c.Close()
			return
		}
		qc := transport.NewQueuedConn(sc, originQueue)
		r.track(qc)
		handle := func(m *wire.Message) {
			if m.Type == wire.MsgSegmentReq {
				r.originReqs.Add(1)
			}
			r.origin.Handle(qc, m)
		}
		handle(first)
		r.pump(sc.name, sc, qc, opOriginTCP, handle)
		r.origin.RemoveConn(qc)
	})

	// Relay: cmd/livenas-edge main.
	up, err := transport.Dial(originLn.Addr().String())
	if err != nil {
		r.close()
		return nil, err
	}
	upSC := &spanConn{Conn: up, tr: tr, name: "relay/up"}
	upq := transport.NewQueuedConn(upSC, 0)
	r.track(upq)
	r.relay = edge.NewRelay(clock, upq, edge.NewTelemetry(nil))
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.pump(upSC.name, upSC, upq, opRelayUpTCP, r.relay.HandleUpstream)
	}()
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.listeners = append(r.listeners, relayLn)
	r.accept(relayLn, func(i int, c net.Conn) {
		sc := &spanConn{Conn: transport.NewNetConn(c), tr: tr, name: fmt.Sprintf("relay/sub%d", i)}
		qc := transport.NewQueuedConn(sc, relayQueue)
		r.track(qc)
		r.pump(sc.name, sc, qc, opRelayDownTCP, func(m *wire.Message) {
			if m.Type == wire.MsgSegmentReq {
				r.relayReqs.Add(1)
			}
			r.relay.HandleDownstream(qc, m)
		})
		r.relay.RemoveConn(qc)
	})

	for i := 0; i < relayClients; i++ {
		c, err := transport.Dial(relayLn.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		c.SetRecvTimeout(relayRecvBudget)
		r.clients = append(r.clients, c)
		for _, ch := range []string{bulkChannel, smallChannel} {
			if err := c.Send(&wire.Message{Type: wire.MsgSubscribe, Channel: ch}); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

// accept runs ln's accept loop; each connection is served on its own
// goroutine until close tears it down.
func (r *relayRig) accept(ln net.Listener, serve func(i int, c net.Conn)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			r.wg.Add(1)
			go func(i int) {
				defer r.wg.Done()
				serve(i, c)
			}(i)
		}
	}()
}

// close tears the topology down and waits for every goroutine.
func (r *relayRig) close() {
	for _, ln := range r.listeners {
		ln.Close()
	}
	for _, c := range r.clients {
		c.Close()
	}
	queued := r.tracked(0)
	for _, q := range queued {
		r.dropped += q.Dropped()
		q.Close()
	}
	r.wg.Wait()
	// A connection accepted while close ran registered after the snapshot.
	for _, q := range r.tracked(len(queued)) {
		q.Close()
	}
}

// clientDone is one client's report for one index.
type clientDone struct {
	bytes int
	rtt   time.Duration
	err   error
}

// relayClient is one viewer-side connection: it follows playlists and
// fetches one segment per index, verifying its content address.
type relayClient struct {
	conn    *transport.NetConn
	tk      *Track
	corrupt bool // test hook: flip one byte of every received segment
}

func (c *relayClient) recv() (*wire.Message, error) {
	c.tk.Begin(opClientRecv)
	m, err := c.conn.Recv()
	c.tk.End()
	return m, err
}

// fetch waits until the playlist shows index, requests (index, rung) and
// verifies the returned segment.
func (c *relayClient) fetch(channel string, index, rung int) clientDone {
	var want string
	for want == "" {
		m, err := c.recv()
		if err != nil {
			return clientDone{err: fmt.Errorf("waiting for playlist %d: %w", index, err)}
		}
		//livenas:allow race-guard a received Message is owned by the goroutine that received it
		if m.Type != wire.MsgPlaylist || m.Channel != channel {
			continue
		}
		c.tk.Begin(opClientPlay)
		pl, err := edge.DecodePlaylist(m.Data)
		c.tk.End()
		if err != nil {
			return clientDone{err: err}
		}
		// The window is read field by field, not through Playlist's methods:
		// they would become reachable from this goroutine without the actor
		// locks the analyzer (livenas-vet race-guard) sees them called under.
		//livenas:allow race-guard a decoded Playlist is owned by the goroutine that decoded it
		for _, ref := range pl.Segments {
			if ref.Index == index && rung < len(ref.IDs) {
				want = ref.IDs[rung]
			}
		}
	}
	t0 := time.Now()
	c.tk.Begin(opClientSend)
	err := c.conn.Send(&wire.Message{Type: wire.MsgSegmentReq, Channel: channel, FrameID: index, Rung: rung})
	c.tk.End()
	if err != nil {
		return clientDone{err: err}
	}
	for {
		m, err := c.recv()
		if err != nil {
			return clientDone{err: fmt.Errorf("waiting for segment %d: %w", index, err)}
		}
		//livenas:allow race-guard a received Message is owned by the goroutine that received it
		if m.Type != wire.MsgSegment || m.Channel != channel || m.FrameID != index {
			continue
		}
		rtt := time.Since(t0)
		if c.corrupt && len(m.Data) > 0 {
			m.Data[len(m.Data)/2] ^= 1
		}
		c.tk.Begin(opClientVerify)
		got := edge.SegmentID(channel, m.FrameID, m.Rung, m.Data)
		c.tk.End()
		if got != m.SegID || got != want || m.Rung != rung {
			return clientDone{err: fmt.Errorf("segment %s/%d/%d: bytes hash to %s, playlist says %s", channel, index, rung, got, want)}
		}
		return clientDone{bytes: len(m.Data), rtt: rtt}
	}
}

// relayLegResult is one leg of one iteration.
type relayLegResult struct {
	leg
	bytes  int
	rttMS  []float64
	failed int
	err    error
}

// runLeg drives n indexes of one channel in lock-step.
func (r *relayRig) runLeg(tk *Track, publish opID, channel string, rungs int, pool [][][]byte, n int, corrupt bool) relayLegResult {
	jobs := make([]chan int, len(r.clients))      // the index each client fetches next
	done := make(chan clientDone, len(r.clients)) // one report per client per index
	var wg sync.WaitGroup
	for i, conn := range r.clients {
		jobs[i] = make(chan int)
		wg.Add(1)
		go func(i int, conn *transport.NetConn) {
			defer wg.Done()
			c := &relayClient{conn: conn, tk: r.tr.Track(fmt.Sprintf("client%d/%s", i, channel)), corrupt: corrupt}
			c.tk.Begin(opClientLoop)
			defer c.tk.End()
			for index := range jobs[i] {
				done <- c.fetch(channel, index, index%rungs)
			}
		}(i, conn)
	}
	var res relayLegResult
	t0 := time.Now()
	for i := 0; i < n && res.err == nil; i++ {
		tk.Begin(publish)
		r.origin.Publish(channel, pool[i%len(pool)])
		tk.End()
		for _, j := range jobs {
			j <- i
		}
		for range jobs {
			d := <-done
			res.ops++
			if d.err != nil {
				res.failed++
				res.err = d.err
				continue
			}
			res.bytes += d.bytes
			res.rttMS = append(res.rttMS, ms(d.rtt))
		}
	}
	res.wall = time.Since(t0)
	for _, j := range jobs {
		close(j)
	}
	wg.Wait()
	return res
}

func relayTCP(e *env) error {
	e.beginSetup()
	in := repeatSetup(e, func() *relayInputs {
		in := buildRelayInputs(e.sz, e.seed)
		if rig, err := newRelayRig(nil, in); err == nil { // listeners and dials are set-up too
			rig.close()
		}
		return in
	})
	e.finishSetup()
	return relayLoop(e, in, false)
}

// relayLoop is the timed part; corrupt is the test hook of relayClient.
func relayLoop(e *env, in *relayInputs, corrupt bool) error {
	var rttMS, goodput []float64
	var originReqs, relayReqs, dropped int64
	err := e.measure(func(i int, tk *Track) (leg, leg, error) {
		var tr *Tracer
		if tk != nil {
			tr = e.tr
		}
		rig, err := newRelayRig(tr, in)
		if err != nil {
			return leg{}, leg{}, err
		}
		bulk := rig.runLeg(tk, opPublishBulk, bulkChannel, len(in.bulkRungs), in.bulk, e.sz.BulkIndexes, corrupt)
		var small relayLegResult
		if bulk.err == nil {
			small = rig.runLeg(tk, opPublishSmall, smallChannel, 1, in.small, e.sz.SmallIndexes, corrupt)
		}
		rig.close()
		e.attempted += int(bulk.ops + small.ops)
		e.failed += bulk.failed + small.failed
		if err := errors.Join(bulk.err, small.err); err != nil {
			return leg{}, leg{}, err
		}
		originReqs += rig.originReqs.Load()
		relayReqs += rig.relayReqs.Load()
		dropped += rig.dropped
		if tk == nil {
			rttMS = append(rttMS, bulk.rttMS...)
			goodput = append(goodput, float64(bulk.bytes)/1e6/bulk.wall.Seconds())
		}
		return bulk.leg, small.leg, nil
	})
	if err != nil {
		return err
	}
	e.set("relay.goodput_mb_per_s", median(goodput))
	e.set("transport.seg_rtt_ms_p50", median(rttMS))
	e.set("transport.seg_rtt_ms_p95", quantile(rttMS, 0.95))
	e.set("transport.queue_dropped", float64(dropped))
	e.set("edge.relay_hit_ratio_tcp", 1-float64(originReqs)/float64(relayReqs))
	e.check(dropped == 0, "relay_tcp: %d messages dropped by a send queue in a closed loop", dropped)
	if !e.trace {
		return nil
	}
	agg := e.foldTrace()
	e.set("edge.origin_publish_tcp_ms", agg.mean(opPublishBulk, time.Millisecond))
	e.set("edge.relay_down_tcp_us", agg.mean(opRelayDownTCP, time.Microsecond))
	wireKernels(e, in)
	return nil
}

// wireKernels times wire.WriteFrame and wire.ReadFrame directly on the
// workload's own messages: one top-rung bulk segment and one small one.
func wireKernels(e *env, in *relayInputs) {
	segment := func(data []byte) *wire.Message {
		return &wire.Message{Type: wire.MsgSegment, Channel: bulkChannel, FrameID: 1, Rung: 1,
			SegID: edge.SegmentID(bulkChannel, 1, 1, data), SegDurUS: 1e6, SentAtUS: 1, Data: data}
	}
	time1 := func(m *wire.Message, reps int) (writeUS, readUS float64, frameLen int) {
		var buf bytes.Buffer
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			buf.Reset()
			if err := wire.WriteFrame(&buf, m); err != nil {
				e.check(false, "wire.WriteFrame: %v", err)
				return
			}
		}
		writeUS = float64(time.Since(t0).Microseconds()) / float64(reps)
		frame := buf.Bytes()
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			got, err := wire.ReadFrame(bytes.NewReader(frame))
			if err != nil || !bytes.Equal(got.Data, m.Data) {
				e.check(false, "wire.ReadFrame round trip: %v", err)
				return
			}
		}
		readUS = float64(time.Since(t0).Microseconds()) / float64(reps)
		return writeUS, readUS, len(frame)
	}
	top := in.bulk[0][len(in.bulk[0])-1]
	small := segment(in.small[0][0])
	w, r, _ := time1(segment(top), 50)
	e.set("wire.write_us_bulk", w)
	e.set("wire.read_us_bulk", r)
	w, r, n := time1(small, 5000)
	e.set("wire.write_us_small", w)
	e.set("wire.read_us_small", r)
	e.set("wire.overhead_bytes_per_msg", float64(n-len(small.Data)))
	const reps = 2000
	objects, _ := allocDelta(func() { time1(small, reps) })
	e.set("wire.allocs_per_msg", objects/reps)
}

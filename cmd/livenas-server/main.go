// Command livenas-server runs LiveNAS's media server (core.Server) over real
// TCP: it accepts ingest connections keyed by channel (the RTMP stream-key
// analogue) and feeds each stream's frames and patches to its own
// core.Server, which decodes the stream, trains its super-resolution DNN
// online under the content-adaptive trainer (Algorithm 1) and enhances the
// decoded frames. The measured SR gain goes back to the client every
// training epoch. Admission is controlled against a simulated
// GPU pool of -gpus slots: a hello that would oversubscribe the pool,
// reuse a live channel key or announce unusable frame geometry is refused
// with a MsgBye carrying the reason.
//
// The same listener is the distribution origin: a connection whose first
// message is MsgSubscribe (cmd/livenas-edge relays, or a viewer directly)
// is handed to the edge origin, which packages each live channel's
// enhanced output into rolling-playlist segments — one segment per
// training epoch, the SR-applied frame encoded at each ladder rung.
//
// Pair it with cmd/livenas-client and cmd/livenas-edge on the same machine:
//
//	livenas-server -listen :9455 -once=false -gpus 2 &
//	livenas-edge -connect 127.0.0.1:9455 -listen :9456 &
//	livenas-client -connect 127.0.0.1:9455 -channel alice -duration 20s &
//	livenas-edge -view alice -connect 127.0.0.1:9456
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the debug listener's mux
	"sync"
	"time"

	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/edge"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", ":9455", "TCP listen address")
		epochLen = flag.Duration("epoch", 5*time.Second, "training epoch length (also the origin's segment duration)")
		once     = flag.Bool("once", true, "exit after the first ingest session")
		gpus     = flag.Int("gpus", 2, "simulated GPU pool size; each live session holds one slot")
		debug    = flag.String("debug", "", "optional HTTP debug listen address "+
			"(expvar at /debug/vars, registry snapshot at /debug/telemetry, "+
			"event trace at /debug/telemetry/events, pprof at /debug/pprof/)")
	)
	flag.Parse()
	if err := checkEpoch(*epochLen); err != nil {
		log.Fatal(err)
	}

	reg := telemetry.New()
	if *debug != "" {
		if _, err := startDebug(*debug, reg); err != nil {
			log.Fatalf("debug listener: %v", err)
		}
	}

	node := newNode(*gpus, reg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("livenas-server listening on %s (%d GPU slots)", ln.Addr(), node.pool.Total())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		if *once {
			serve(conn, *epochLen, reg, node)
			return
		}
		// One goroutine per session; the process's lifetime bounds them
		// (the server runs until killed in multi-session mode).
		go serve(conn, *epochLen, reg, node)
	}
}

// node is the server's multi-tenant admission state: the live channel keys
// and the simulated GPU pool they hold slots in, with internal/fleet's
// invariants (unique live keys, all-or-nothing slot admission) held against
// real connections. It also owns the distribution origin every ingest
// session publishes into, and the wall clock that both stamp events with.
type node struct {
	mu     sync.Mutex
	live   map[string]bool
	pool   *sr.DevicePool
	clock  *edge.WallClock
	origin *edge.Origin
}

// checkEpoch refuses an -epoch that each session's epoch ticker would panic
// on (time.NewTicker takes only a positive interval): the panic would end
// every other session on the node with it.
func checkEpoch(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-epoch %v must be positive", d)
	}
	return nil
}

// newNode builds a node with a pool of gpus slots that reports to reg.
func newNode(gpus int, reg *telemetry.Registry) *node {
	clock := edge.NewWallClock()
	return &node{
		live:   map[string]bool{},
		pool:   sr.NewDevicePool(gpus),
		clock:  clock,
		origin: edge.NewOrigin(clock, 6, edge.NewTelemetry(reg)),
	}
}

// admit reserves the channel key and one GPU slot; a non-empty refusal
// reason means the session must be turned away.
func (n *node) admit(key string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live[key] {
		return fmt.Sprintf("channel %q is already live", key)
	}
	if !n.pool.Acquire(1) {
		return fmt.Sprintf("GPU pool saturated (%d/%d slots held)", n.pool.InUse(), n.pool.Total())
	}
	n.live[key] = true
	return ""
}

// release frees the key and its slot when the session ends.
func (n *node) release(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.live, key)
	n.pool.Release(1)
}

// A session sizes its segment encoders and SR output by the native frame
// and keeps three seconds of decoded ingest frames (a byte a pixel) to pair
// patches with: a hello may announce at most 4K UHD native, and no more
// ingest pixels a second than 1080p at 30 fps, which bounds that ring at 187 MB.
const maxNativePixels, maxFPS, maxRingPixels = 3840 * 2160, 120, 3 * 30 * 1920 * 1080

// helloConfig builds the session's core.Config from a hello off the wire, so
// bad geometry costs the peer its session, not the node its process. It checks
// sizes and frame rate; core.NewServer applies core.Config's ratio rules.
func helloConfig(h *wire.Message, channel string, epochLen time.Duration, reg *telemetry.Registry) (core.Config, error) {
	if h.IngestW <= 0 || h.IngestH <= 0 || h.NativeW <= 0 || h.NativeH <= 0 {
		return core.Config{}, fmt.Errorf("geometry %dx%d -> %dx%d not positive", h.IngestW, h.IngestH, h.NativeW, h.NativeH)
	}
	if h.NativeW > maxNativePixels/h.NativeH {
		return core.Config{}, fmt.Errorf("native %dx%d exceeds %d pixels", h.NativeW, h.NativeH, maxNativePixels)
	}
	if !(h.FPS >= 1 && h.FPS <= maxFPS) {
		return core.Config{}, fmt.Errorf("frame rate %g outside [1, %d]", h.FPS, maxFPS)
	}
	if 3*h.FPS*float64(h.IngestW)*float64(h.IngestH) > maxRingPixels {
		return core.Config{}, fmt.Errorf("ingest %dx%d at %g fps exceeds %d pixels in 3 s", h.IngestW, h.IngestH, h.FPS, maxRingPixels)
	}
	return core.Config{
		ChannelKey: channel,
		Ingest:     trace.Resolution{W: h.IngestW, H: h.IngestH},
		Native:     trace.Resolution{W: h.NativeW, H: h.NativeH},
		FPS:        h.FPS,
		Scheme:     core.SchemeLiveNAS,
		EpochLen:   epochLen,
		Telemetry:  reg,
	}, nil
}

// originLadder is the demo distribution ladder, scaled to the demo's
// 384x216 world like the client's bitrates are.
var originLadder = []edge.RungInfo{
	{Name: "low", Kbps: 100, EffectiveKbps: 100},
	{Name: "mid", Kbps: 200, EffectiveKbps: 200},
	{Name: "high", Kbps: 400, EffectiveKbps: 400},
}

// startDebug serves the process's introspection surface on its own HTTP
// listener and returns the bound address: expvar JSON (the telemetry
// snapshot is published as the "livenas" var), the registry's own JSON and
// JSONL endpoints, and pprof (registered on the default mux by the
// net/http/pprof import). Call it at most once per process — expvar and the
// default mux reject duplicate registrations.
func startDebug(addr string, reg *telemetry.Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	expvar.Publish("livenas", expvar.Func(func() any { return reg.Snapshot() }))
	http.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			log.Printf("debug: telemetry write: %v", err)
		}
	})
	http.HandleFunc("/debug/telemetry/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := reg.WriteEvents(w); err != nil {
			log.Printf("debug: event write: %v", err)
		}
	})
	log.Printf("debug listener on http://%s (/debug/vars /debug/telemetry /debug/pprof/)", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// serveEdge hands a subscriber connection to the origin: the first
// subscribe is replayed into the handler, then the connection pumps until
// it dies. Sends are queued so a slow subscriber never blocks publishes.
func serveEdge(tc *transport.NetConn, first *wire.Message, n *node) {
	qc := transport.NewQueuedConn(tc, 4<<20)
	defer qc.Close()
	// A received Message is owned by this connection's goroutine; Relay.mu
	// guards relays' own state, not the wire type.
	log.Printf("edge subscriber from %s (channel %q)", tc.RemoteAddr(), first.Channel)
	n.origin.Handle(qc, first)
	err := transport.Pump(qc, func(m *wire.Message) { n.origin.Handle(qc, m) })
	n.origin.RemoveConn(qc)
	log.Printf("edge subscriber %s gone: %v", tc.RemoteAddr(), err)
}

func serve(conn net.Conn, epochLen time.Duration, reg *telemetry.Registry, n *node) {
	tc := transport.NewNetConn(conn)
	defer tc.Close()
	log.Printf("session from %s", conn.RemoteAddr())

	hello, err := tc.Recv()
	if err != nil {
		log.Printf("bad first message: %v", err)
		return
	}
	if hello.Type == wire.MsgSubscribe {
		serveEdge(tc, hello, n)
		return
	}
	if hello.Type != wire.MsgHello {
		log.Printf("first message is %d, want hello or subscribe", hello.Type)
		return
	}
	channel := hello.Channel // a received Message is owned by this connection's goroutine until handed off
	if channel == "" {
		// Pre-channel clients still get a session; key it by peer address
		// so the admission bookkeeping stays uniform.
		channel = "anon/" + conn.RemoteAddr().String()
	}
	refuse := func(reason string) {
		log.Printf("refusing %s (%s): %s", channel, conn.RemoteAddr(), reason)
		if err := tc.Send(&wire.Message{Type: wire.MsgBye, Channel: channel, Reason: reason}); err != nil {
			log.Printf("refusal write: %v", err)
		}
	}
	cfg, err := helloConfig(hello, channel, epochLen, reg)
	if err != nil {
		refuse(err.Error())
		return
	}
	if reason := n.admit(channel); reason != "" {
		refuse(reason)
		return
	}
	defer n.release(channel)
	sv, err := core.NewServer(cfg, n.clock.Now)
	if err != nil {
		refuse(err.Error()) // geometry core cannot serve; the deferred release frees the slot
		return
	}
	log.Printf("stream %s: ingest %dx%d -> native %dx%d, %.0f fps", channel, hello.IngestW, hello.IngestH, hello.NativeW, hello.NativeH, hello.FPS)

	// The channel goes live on the distribution origin too: each epoch
	// publishes the SR-applied frame as one segment per ladder rung.
	n.origin.AddChannel(channel, epochLen, originLadder)
	segEncs := make([]*codec.Encoder, len(originLadder))
	for i := range segEncs {
		segEncs[i] = codec.NewEncoder(codec.Config{Profile: codec.BX8, W: hello.NativeW, H: hello.NativeH, KeyInterval: 1})
	}

	epochTimer := time.NewTicker(epochLen)
	defer epochTimer.Stop()
	// The pump hands each message to the loop below; quit releases it when
	// the loop has returned, so it never blocks on msgs forever.
	msgs, quit := make(chan *wire.Message), make(chan struct{})
	defer close(quit)
	errc := make(chan error, 1)
	go func() {
		errc <- transport.Pump(tc, func(m *wire.Message) {
			select {
			case msgs <- m:
			case <-quit:
			}
		})
	}()

	// This loop is the one goroutine that drives sv.
	for {
		select {
		case err := <-errc:
			log.Printf("session %s ended: %v", channel, err)
			return
		case <-epochTimer.C:
			fb, _ := sv.Epoch() // a LiveNAS session always trains
			log.Printf("%s epoch %d: SR gain on recent patches %+.2f dB (%d samples)", channel, fb.Epoch, fb.GainDB, fb.Samples)
			if err := tc.Send(&wire.Message{Type: wire.MsgStats, Channel: channel, GainDB: fb.GainDB, Epochs: fb.Epoch, Samples: fb.Samples,
				PrevGainDB: fb.PrevGainDB, PatchKbps: fb.PatchKbps, Suspended: fb.Suspended}); err != nil {
				log.Printf("session %s ended: stats write: %v", channel, err)
				return
			}
			if out, _, _, ok := sv.Output(); ok {
				payloads := make([][]byte, len(originLadder))
				for i, e := range segEncs {
					payloads[i] = e.Encode(out, int(originLadder[i].Kbps*1000*epochLen.Seconds())).Data
				}
				n.origin.Publish(channel, payloads)
			}
		case m := <-msgs:
			switch m.Type {
			case wire.MsgVideo:
				sv.Video(&codec.EncodedFrame{Data: m.Data, Key: m.Key, QP: m.QP, Seq: m.FrameID}, n.clock.Now())
			case wire.MsgPatch:
				sv.Patch(m.FrameID, m.X, m.Y, m.Data)
			case wire.MsgBye:
				log.Printf("client %s done", channel)
				return
			default:
				// A second hello, a stats echo or an edge message (serveEdge
				// owns those) has no place on an ingest connection: ignored.
			}
		}
	}
}

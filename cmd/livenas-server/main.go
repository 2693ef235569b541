// Command livenas-server runs a LiveNAS media server over real TCP: it
// accepts ingest connections keyed by channel (the RTMP stream-key
// analogue), decodes each incoming stream, trains that stream's
// super-resolution DNN online on the client's high-quality patches, applies
// it to the decoded frames, and reports the measured SR gain back to the
// client every training epoch. Admission is controlled against a simulated
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
	"livenas/internal/frame"
	"livenas/internal/metrics"
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

	reg := telemetry.New()
	if *debug != "" {
		if _, err := startDebug(*debug, reg); err != nil {
			log.Fatalf("debug listener: %v", err)
		}
	}

	node := &node{
		live:   map[string]bool{},
		pool:   sr.NewDevicePool(sr.RTX2080Ti(), *gpus),
		origin: edge.NewOrigin(edge.NewWallClock(), 6, edge.NewTelemetry(reg)),
	}

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

// node is the server's multi-tenant admission state: the set of live
// channel keys and the simulated GPU pool they hold slots in. It is the
// runnable-demo counterpart of internal/fleet's virtual-clock Manager —
// same invariants (unique live keys, all-or-nothing slot admission),
// enforced against real concurrent connections instead of a planned
// timeline. It also owns the distribution origin every ingest session
// publishes its enhanced output into.
type node struct {
	mu     sync.Mutex
	live   map[string]bool
	pool   *sr.DevicePool
	origin *edge.Origin
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

// maxNativePixels caps the native frame a hello may announce (4K UHD). A
// session sizes its segment encoders and SR output by it, so an unbounded
// value would let one hello allocate gigabytes.
const maxNativePixels = 3840 * 2160

// helloScale validates the geometry a hello announces — it arrives off the
// wire and sizes every per-session allocation, so a bad one must cost the
// peer its session, not the node its process — and returns the integer SR
// factor. The integer, isotropic-ratio rule is core.Config's (its default
// patch-size divisibility also caps the factor at 120).
func helloScale(h *wire.Message) (int, error) {
	if h.IngestW <= 0 || h.IngestH <= 0 || h.NativeW <= 0 || h.NativeH <= 0 {
		return 0, fmt.Errorf("geometry %dx%d -> %dx%d not positive", h.IngestW, h.IngestH, h.NativeW, h.NativeH)
	}
	if h.NativeW > maxNativePixels/h.NativeH {
		return 0, fmt.Errorf("native %dx%d exceeds %d pixels", h.NativeW, h.NativeH, maxNativePixels)
	}
	cfg := core.Config{
		Ingest: trace.Resolution{W: h.IngestW, H: h.IngestH},
		Native: trace.Resolution{W: h.NativeW, H: h.NativeH},
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return cfg.Scale(), nil
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
	scale, err := helloScale(hello)
	if err != nil {
		refuse(err.Error())
		return
	}
	if reason := n.admit(channel); reason != "" {
		refuse(reason)
		return
	}
	defer n.release(channel)
	log.Printf("stream %s: ingest %dx%d -> native %dx%d (x%d), %.0f fps",
		channel, hello.IngestW, hello.IngestH, hello.NativeW, hello.NativeH, scale, hello.FPS)

	// The channel goes live on the distribution origin too: each epoch
	// publishes the SR-applied frame as one segment per ladder rung.
	n.origin.AddChannel(channel, epochLen, originLadder)
	segEncs := make([]*codec.Encoder, len(originLadder))
	for i := range segEncs {
		segEncs[i] = codec.NewEncoder(codec.Config{Profile: codec.BX8, W: hello.NativeW, H: hello.NativeH, KeyInterval: 1})
	}

	dec := codec.NewDecoder(codec.Config{Profile: codec.BX8, W: hello.IngestW, H: hello.IngestH})
	model := sr.NewModel(scale, sr.DefaultChannels, 1)
	trainer := sr.NewTrainer(model, sr.DefaultTrainConfig(), 2)
	proc := sr.NewProcessor(model, 1, sr.RTX2080Ti())
	trainer.SetTelemetry(reg)
	proc.SetTelemetry(reg)
	// The real server timestamps its telemetry events with session-relative
	// wall-clock time (there is no simulated clock here).
	start := time.Now() //livenas:allow determinism-taint real server stamps telemetry with wall-clock session time
	elapsed := func() time.Duration {
		return time.Since(start) //livenas:allow determinism-taint ditto
	}

	type patchPair struct{ lr, hr *frame.Frame }
	var (
		lastDecoded = map[int]*frame.Frame{}
		recent      []patchPair
		frames      int
		patches     int
		epochs      int
		epochTimer  = time.NewTicker(epochLen)
		lastFrame   *frame.Frame
	)
	defer epochTimer.Stop()

	msgs := make(chan *wire.Message)
	errc := make(chan error, 1)
	go func() {
		errc <- transport.Pump(tc, func(m *wire.Message) { msgs <- m })
	}()

	for {
		select {
		case err := <-errc:
			log.Printf("session %s ended after %d frames, %d patches, %d epochs: %v", channel, frames, patches, epochs, err)
			return
		case <-epochTimer.C:
			if trainer.SampleCount() == 0 {
				continue
			}
			loss := trainer.Epoch()
			epochs++
			proc.Sync(model)
			gain := 0.0
			for _, p := range recent {
				up := p.lr.ResizeBilinear(p.hr.W, p.hr.H)
				gain += metrics.PSNR(p.hr, model.SuperResolve(p.lr)) - metrics.PSNR(p.hr, up)
			}
			if len(recent) > 0 {
				gain /= float64(len(recent))
			}
			log.Printf("%s epoch %d: loss %.5f, SR gain on recent patches %+.2f dB (%d samples)",
				channel, epochs, loss, gain, trainer.SampleCount())
			reg.Emit(elapsed(), "train_epoch",
				telemetry.Str("channel", channel),
				telemetry.Num("epoch", float64(epochs)),
				telemetry.Num("samples", float64(trainer.SampleCount())),
				telemetry.Num("loss", loss),
				telemetry.Num("gain_cur_db", gain),
			)
			if err := tc.Send(&wire.Message{Type: wire.MsgStats, Channel: channel, GainDB: gain, Epochs: epochs, Samples: trainer.SampleCount()}); err != nil {
				log.Printf("session %s ended after %d frames, %d patches, %d epochs: stats write: %v", channel, frames, patches, epochs, err)
				return
			}
			if lastFrame != nil {
				out, lat := proc.Process(lastFrame)
				log.Printf("applied SR to latest frame: %dx%d (model-latency %v)", out.W, out.H, lat)
				// Publish the enhanced frame as this epoch's segment at
				// every ladder rung.
				payloads := make([][]byte, len(originLadder))
				for i, e := range segEncs {
					payloads[i] = e.Encode(out, int(originLadder[i].Kbps*1000*epochLen.Seconds())).Data
				}
				n.origin.Publish(channel, payloads)
			}
		case m := <-msgs:
			switch m.Type {
			case wire.MsgVideo:
				f, err := dec.Decode(&codec.EncodedFrame{Data: m.Data, Key: m.Key, QP: m.QP, Seq: m.FrameID})
				if err != nil {
					log.Printf("decode frame %d: %v", m.FrameID, err)
					continue
				}
				frames++
				lastFrame = f
				lastDecoded[m.FrameID] = f
				delete(lastDecoded, m.FrameID-100)
			case wire.MsgPatch:
				hr, err := codec.DecodePatch(m.Data)
				if err != nil {
					continue
				}
				lf, ok := lastDecoded[m.FrameID]
				if !ok {
					continue
				}
				lps := hr.W / scale
				lr := lf.Crop(m.X/scale, m.Y/scale, lps, lps)
				trainer.AddSample(lr, hr)
				recent = append(recent, patchPair{lr: lr, hr: hr})
				if len(recent) > 8 {
					recent = recent[1:]
				}
				patches++
			case wire.MsgBye:
				log.Printf("client %s done: %d frames, %d patches, %d epochs", channel, frames, patches, epochs)
				return
			case wire.MsgHello:
				log.Printf("duplicate hello mid-session; ignoring")
			case wire.MsgStats:
				// Stats flow server→client only; a client echo is ignored.
			default:
				// Edge messages never arrive on an ingest connection
				// (serveEdge owns those); tolerate and ignore.
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/frame"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
	"livenas/internal/wire"
)

// TestDebugListener boots the -debug HTTP listener on an ephemeral port and
// checks each surface: expvar JSON with the published telemetry snapshot,
// the registry's own snapshot and JSONL event endpoints, and pprof.
func TestDebugListener(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("core_patches_received").Add(3)
	reg.Emit(time.Second, "trainer_state", telemetry.Str("state", "training"))

	addr, err := startDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("startDebug: %v", err)
	}
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(vars["livenas"], &snap); err != nil {
		t.Fatalf("livenas expvar is not a snapshot: %v", err)
	}
	if snap.Counters["core_patches_received"] != 3 {
		t.Fatalf("expvar snapshot counters = %v, want core_patches_received=3", snap.Counters)
	}

	if err := json.Unmarshal([]byte(get("/debug/telemetry")), &snap); err != nil {
		t.Fatalf("/debug/telemetry is not a snapshot: %v", err)
	}

	events := strings.TrimSpace(get("/debug/telemetry/events"))
	var ev map[string]any
	if err := json.Unmarshal([]byte(events), &ev); err != nil {
		t.Fatalf("/debug/telemetry/events line %q not JSON: %v", events, err)
	}
	if ev["type"] != "trainer_state" {
		t.Fatalf("event type = %v, want trainer_state", ev["type"])
	}

	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}
}

// session runs serve on one end of a net.Pipe, with the given epoch and
// registry, and returns the client end plus a channel closed when serve has
// returned.
func session(t *testing.T, n *node, epoch time.Duration, reg *telemetry.Registry) (*transport.NetConn, <-chan struct{}) {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(srv, epoch, reg, n)
	}()
	c := transport.NewNetConn(cli)
	t.Cleanup(func() { c.Close() })
	return c, done
}

// TestEpochFlagRefused: -epoch 0 reached every session's time.NewTicker,
// whose panic on the first admitted session ended every other one on the
// node. A non-positive epoch is refused before the server listens.
func TestEpochFlagRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch time.Duration
		ok    bool
	}{
		{"zero", 0, false},
		{"negative", -time.Second, false},
		{"most negative", math.MinInt64, false},
		{"one nanosecond", time.Nanosecond, true},
		{"default", 5 * time.Second, true},
	} {
		if err := checkEpoch(tc.epoch); (err == nil) != tc.ok {
			t.Errorf("%s: checkEpoch(%v) = %v, want ok %v", tc.name, tc.epoch, err, tc.ok)
		}
	}
}

// TestHostileHelloRefused: the hello's geometry and frame rate come off the
// wire and size every per-session allocation. Each bad one must be refused
// with a MsgBye — no divide-by-zero, no NewModel panic, no empty pairing
// ring, no gigabyte ring, no GPU slot left held — and the node must keep
// serving.
func TestHostileHelloRefused(t *testing.T) {
	n := newNode(1, telemetry.New())
	for _, tc := range []struct {
		name           string
		iw, ih, nw, nh int
		fps            float64
	}{
		{"zero ingest width", 0, 108, 384, 216, 30},
		{"zero ingest height", 192, 0, 384, 216, 30},
		{"negative native", 192, 108, -384, -216, 30},
		{"native below ingest", 384, 216, 192, 108, 30},
		{"non-integer ratio", 256, 144, 384, 216, 30},
		{"anisotropic ratio", 192, 72, 384, 216, 30},
		{"oversized native", 1 << 15, 1 << 15, 1 << 16, 1 << 16, 30},
		{"frame rate below one", 192, 108, 384, 216, 0.1},
		{"frame rate unannounced", 192, 108, 384, 216, 0},
		{"frame rate too high", 192, 108, 384, 216, 240},
		{"frame rate NaN", 192, 108, 384, 216, math.NaN()},
		{"4K ring at 120 fps", 3840, 2160, 3840, 2160, 120},
	} {
		c, done := session(t, n, time.Hour, telemetry.New())
		if err := c.Send(&wire.Message{Type: wire.MsgHello, Channel: "evil",
			IngestW: tc.iw, IngestH: tc.ih, NativeW: tc.nw, NativeH: tc.nh, FPS: tc.fps}); err != nil {
			t.Fatalf("%s: hello: %v", tc.name, err)
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: no refusal: %v", tc.name, err)
		}
		if m.Type != wire.MsgBye || m.Reason == "" {
			t.Fatalf("%s: got message type %d reason %q, want MsgBye with a reason", tc.name, m.Type, m.Reason)
		}
		<-done
		if got := n.pool.InUse(); got != 0 {
			t.Fatalf("%s: %d GPU slots held after refusal", tc.name, got)
		}
	}

	// The node still admits a well-formed session under the same key. The
	// second hello is only read by the session's message pump, which starts
	// after admission, so once its Send returns the slot must be held.
	c, done := session(t, n, time.Hour, telemetry.New())
	hello := &wire.Message{Type: wire.MsgHello, Channel: "evil",
		IngestW: 192, IngestH: 108, NativeW: 384, NativeH: 216, FPS: 30}
	for i := 0; i < 2; i++ {
		if err := c.Send(hello); err != nil {
			t.Fatalf("valid hello: %v", err)
		}
	}
	if got := n.pool.InUse(); got != 1 {
		t.Fatalf("valid session holds %d GPU slots, want 1", got)
	}
	if err := c.Send(&wire.Message{Type: wire.MsgBye}); err != nil {
		t.Fatalf("bye: %v", err)
	}
	<-done
	if got := n.pool.InUse(); got != 0 {
		t.Fatalf("%d GPU slots held after the session ended", got)
	}
}

// demoHello announces the demo client's geometry: 192x108 ingest, x2 to
// 384x216, 10 fps.
func demoHello(channel string) *wire.Message {
	return &wire.Message{Type: wire.MsgHello, Channel: channel,
		IngestW: 192, IngestH: 108, NativeW: 384, NativeH: 216, FPS: 10}
}

// streamer renders and encodes the demo client's stream: frame i of the
// source, its BX8 ingest encoding as a MsgVideo, and patches cropped from
// the native frame as MsgPatch.
type streamer struct {
	src *vidgen.Source
	enc *codec.Encoder
	raw *frame.Frame
}

func newStreamer() *streamer {
	return &streamer{
		src: vidgen.NewSource(vidgen.JustChatting, 384, 216, 7, 30),
		enc: codec.NewEncoder(codec.Config{Profile: codec.BX8, W: 192, H: 108, KeyInterval: 10}),
	}
}

func (s *streamer) video(id int) *wire.Message {
	s.raw = s.src.FrameAt(float64(id) / 10)
	ef := s.enc.Encode(s.raw.Downscale(2), 400_000/10)
	return &wire.Message{Type: wire.MsgVideo, FrameID: id, Key: ef.Key, QP: ef.QP, Data: ef.Data}
}

// patch crops a w x h patch at native (x, y) from the last frame video
// rendered.
func (s *streamer) patch(id, x, y, w, h int) *wire.Message {
	return &wire.Message{Type: wire.MsgPatch, FrameID: id, X: x, Y: y,
		Data: codec.EncodePatch(s.raw.Crop(x, y, w, h), codec.PatchQuality)}
}

// drain reads the client end until it closes, handing every MsgStats to
// stats without blocking (net.Pipe is synchronous, so an unread stats
// message would stall the server's loop). The returned channel closes when
// the reader is done.
func drain(c *transport.NetConn, stats chan<- *wire.Message) <-chan struct{} {
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		_ = transport.Pump(c, func(m *wire.Message) {
			if m.Type != wire.MsgStats {
				return
			}
			select {
			case stats <- m:
			default:
			}
		})
	}()
	return gone
}

// TestMalformedPatchGeometry: a decodable patch that is odd-sided or not
// square used to reach the trainer and panic the process, ending every
// session on the node. Each is dropped before decoding, the session
// survives, and the next valid patch is admitted.
func TestMalformedPatchGeometry(t *testing.T) {
	reg := telemetry.New()
	n := newNode(1, reg)
	c, done := session(t, n, time.Hour, reg)
	gone := drain(c, make(chan *wire.Message, 1))
	st := newStreamer()
	for _, m := range []*wire.Message{
		demoHello("odd"),
		st.video(0),
		st.patch(0, 24, 24, 25, 25), // odd side: not a multiple of the x2 scale
		st.patch(0, 24, 24, 24, 32), // not square
		st.patch(0, 24, 24, 24, 24),
		{Type: wire.MsgBye},
	} {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %d: %v", m.Type, err)
		}
	}
	<-done
	c.Close()
	<-gone
	admits := reg.EventsByType("patch_admit")
	if len(admits) != 1 {
		t.Fatalf("patch_admit events = %+v, want exactly the valid patch", admits)
	}
	if got := reg.Snapshot().Counters["core_patches_received"]; got != 1 {
		t.Fatalf("core_patches_received = %d, want 1 (malformed patches are not decoded)", got)
	}
	if got := n.pool.InUse(); got != 0 {
		t.Fatalf("%d GPU slots held after the session ended", got)
	}
}

// TestServeIngestLoopback drives one ingest session end to end over
// net.Pipe with a short epoch: core's client, on a fake clock stepped
// 100 ms a frame, sends frames and the patches its scheduler (§5.1) and
// sampler (§5.2) release; core's server runs Algorithm 1 and returns
// MsgStats carrying the epoch feedback, which steers the client's next
// scheduler steps; a segment is published at the origin, and the GPU slot is
// handed back after MsgBye.
func TestServeIngestLoopback(t *testing.T) {
	reg := telemetry.New()
	n := newNode(1, reg)
	c, done := session(t, n, 100*time.Millisecond, reg)
	stats := make(chan *wire.Message, 64)
	gone := drain(c, stats)
	hello := demoHello("loop")
	if err := c.Send(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}

	var now time.Duration
	var sendErr error
	creg := telemetry.New()
	cl, err := core.NewClient(core.Config{
		ChannelKey: "loop", Cat: vidgen.JustChatting, Seed: 7, FPS: hello.FPS, Scheme: core.SchemeLiveNAS,
		Native: trace.Resolution{W: hello.NativeW, H: hello.NativeH}, Ingest: trace.Resolution{W: hello.IngestW, H: hello.IngestH},
		PatchSize: 24, MinVideoKbps: 40, StepKbps: 20, InitPatchKbps: 20, MinPatchKbps: 5, GCCInitKbps: 400,
		Telemetry: creg,
	}, vidgen.NewSource(vidgen.JustChatting, 384, 216, 7, 600), func() time.Duration { return now }, func(u core.Unit) {
		m := &wire.Message{Type: wire.MsgVideo, FrameID: u.FrameID, Key: u.Key, QP: u.QP, X: u.X, Y: u.Y, Data: u.Data}
		if u.Patch {
			m.Type = wire.MsgPatch
		}
		if sendErr == nil {
			sendErr = c.Send(m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// steered reports whether a scheduler step has moved the patch rate on
	// the server's feedback: before any feedback every gradient is zero.
	steered := func() bool {
		for _, ev := range creg.EventsByType("scheduler_split") {
			if ev.NumField("gradient_db_per_kbps") != 0 {
				return true
			}
		}
		return false
	}
	var trained *wire.Message
	deadline := time.After(2 * time.Minute)
	for id := 1; trained == nil || !steered(); id++ {
		cl.Capture()
		if sendErr != nil {
			t.Fatalf("frame %d: %v", id, sendErr)
		}
		if id%10 == 0 {
			cl.Schedule()
		}
		now += 100 * time.Millisecond
		select {
		case m := <-stats:
			cl.Feedback(core.Feedback{PrevGainDB: m.PrevGainDB, GainDB: m.GainDB, PatchKbps: m.PatchKbps, Suspended: m.Suspended})
			if trained == nil && m.Epochs >= 1 && m.Samples > 0 {
				trained = m
				t.Logf("frame %d: first trained epoch's MsgStats %+v", id, m)
			}
		case <-deadline:
			t.Fatalf("no trained epoch steering the scheduler after %d frames", id)
		default:
		}
	}
	if err := c.Send(&wire.Message{Type: wire.MsgBye}); err != nil {
		t.Fatalf("bye: %v", err)
	}
	<-done
	c.Close()
	<-gone

	// The first trained epoch saw patches, and its report carries the gain
	// of the model before the epoch and the patch rate that bought the step.
	if trained.PatchKbps <= 0 || trained.PrevGainDB == 0 || trained.Suspended {
		t.Fatalf("first trained epoch's MsgStats %+v lacks the epoch feedback", trained)
	}
	if len(reg.EventsByType("trainer_state")) == 0 {
		t.Fatal("no trainer_state event: the server is not running Algorithm 1")
	}
	epochs := reg.EventsByType("train_epoch")
	if len(epochs) == 0 || epochs[0].StrField("channel") != "loop" {
		t.Fatalf("train_epoch events %+v, want channel loop", epochs)
	}
	if p := n.origin.Playlist("loop"); p == nil || len(p.Segments) == 0 {
		t.Fatalf("origin playlist for loop = %+v, want a published segment", p)
	}
	if got := n.pool.InUse(); got != 0 {
		t.Fatalf("%d GPU slots held after MsgBye", got)
	}
}

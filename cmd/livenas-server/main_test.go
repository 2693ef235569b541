package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"livenas/internal/edge"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

// TestDebugListener boots the -debug HTTP listener on an ephemeral port and
// checks each surface: expvar JSON with the published telemetry snapshot,
// the registry's own snapshot and JSONL event endpoints, and pprof.
func TestDebugListener(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("core_frames_decoded").Add(3)
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
	if snap.Counters["core_frames_decoded"] != 3 {
		t.Fatalf("expvar snapshot counters = %v, want core_frames_decoded=3", snap.Counters)
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

// session runs serve on one end of a net.Pipe and returns the client end
// plus a channel closed when serve has returned.
func session(t *testing.T, n *node) (*transport.NetConn, <-chan struct{}) {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(srv, time.Hour, telemetry.New(), n)
	}()
	c := transport.NewNetConn(cli)
	t.Cleanup(func() { c.Close() })
	return c, done
}

// TestHostileHelloRefused: the hello's geometry comes off the wire and
// sizes every per-session allocation. Each bad one must be refused with a
// MsgBye before admission — no divide-by-zero, no NewModel panic, no GPU
// slot held — and the node must keep serving.
func TestHostileHelloRefused(t *testing.T) {
	n := &node{
		live:   map[string]bool{},
		pool:   sr.NewDevicePool(sr.RTX2080Ti(), 1),
		origin: edge.NewOrigin(edge.NewWallClock(), 6, edge.NewTelemetry(telemetry.New())),
	}
	for _, tc := range []struct {
		name           string
		iw, ih, nw, nh int
	}{
		{"zero ingest width", 0, 108, 384, 216},
		{"zero ingest height", 192, 0, 384, 216},
		{"negative native", 192, 108, -384, -216},
		{"native below ingest", 384, 216, 192, 108},
		{"non-integer ratio", 256, 144, 384, 216},
		{"anisotropic ratio", 192, 72, 384, 216},
		{"oversized native", 1 << 15, 1 << 15, 1 << 16, 1 << 16},
	} {
		c, done := session(t, n)
		if err := c.Send(&wire.Message{Type: wire.MsgHello, Channel: "evil",
			IngestW: tc.iw, IngestH: tc.ih, NativeW: tc.nw, NativeH: tc.nh, FPS: 30}); err != nil {
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
	c, done := session(t, n)
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

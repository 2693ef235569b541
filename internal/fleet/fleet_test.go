package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"livenas/internal/core"
	"livenas/internal/nn"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// testCfg mirrors core's reduced-resolution test geometry (1/25 of the
// paper's 1080p sessions) so fleet tests stay fast.
func testCfg(seed int64, dur time.Duration) core.Config {
	return core.Config{
		Cat:           vidgen.JustChatting,
		Seed:          seed,
		Native:        trace.Resolution{Name: "384x216", W: 384, H: 216},
		Ingest:        trace.Resolution{Name: "192x108", W: 192, H: 108},
		FPS:           10,
		Duration:      dur,
		Scheme:        core.SchemeLiveNAS,
		PatchSize:     24,
		MetricEvery:   2 * time.Second,
		Channels:      6,
		MinVideoKbps:  40,
		GCCInitKbps:   160,
		MTU:           240,
		StepKbps:      20,
		InitPatchKbps: 20,
		MinPatchKbps:  5,
		Trace:         trace.FCCUplink(seed+11, dur+time.Minute, 250),
	}
}

func spec(key string, at time.Duration, seed int64, dur time.Duration) StreamSpec {
	return StreamSpec{Key: key, ArriveAt: at, Cfg: testCfg(seed, dur), Weight: 1}
}

func TestDuplicateChannelKey(t *testing.T) {
	m := NewManager(Options{GPUs: 4})
	if _, err := m.Register(spec("alice", 0, 1, 30*time.Second)); err != nil {
		t.Fatalf("first register: %v", err)
	}
	_, err := m.Register(spec("alice", time.Second, 2, 30*time.Second))
	var dup ErrDuplicateKey
	if !errors.As(err, &dup) || dup.Key != "alice" {
		t.Fatalf("duplicate live key: got %v, want ErrDuplicateKey{alice}", err)
	}
	// After the stream departs, the key is free for a new session.
	if err := m.Teardown("alice"); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if _, err := m.Register(spec("alice", 2*time.Second, 3, 30*time.Second)); err != nil {
		t.Fatalf("re-register after teardown: %v", err)
	}
	if _, err := m.Register(StreamSpec{Key: "", ArriveAt: 3 * time.Second, Cfg: testCfg(4, time.Minute)}); err == nil {
		t.Fatal("empty channel key admitted")
	}
}

func TestRejectionUnderFullPoolEmitsBackpressure(t *testing.T) {
	reg := telemetry.New()
	m := NewManager(Options{GPUs: 2, MaxGPUsPerStream: 1, Policy: PolicyReject, Telemetry: reg})
	for i, key := range []string{"a", "b", "c"} {
		s, err := m.Register(spec(key, 0, int64(i+1), time.Minute))
		if err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
		if i < 2 && s.State != StateIngesting {
			t.Fatalf("stream %s: state %s, want ingesting", key, s.State)
		}
		if i == 2 && s.State != StateRejected {
			t.Fatalf("stream c: state %s, want rejected", s.State)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet_streams_rejected"]; got != 1 {
		t.Fatalf("fleet_streams_rejected = %d, want 1", got)
	}
	var sawBP, sawReject bool
	for _, ev := range reg.Events() {
		switch ev.Type {
		case "fleet_backpressure":
			sawBP = true
		case "fleet_reject":
			sawReject = true
		}
	}
	if !sawBP || !sawReject {
		t.Fatalf("backpressure/reject events: got %v/%v, want both", sawBP, sawReject)
	}
}

func TestDegradePolicyAdmitsWithoutGPU(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyDegrade})
	if _, err := m.Register(spec("a", 0, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Register(spec("b", 0, 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded || s.GPUs != 0 || s.State != StateIngesting {
		t.Fatalf("over-capacity stream: degraded=%v gpus=%d state=%s", s.Degraded, s.GPUs, s.State)
	}
	if s.Cfg.Scheme != core.SchemeWebRTC {
		t.Fatalf("degraded scheme %v, want WebRTC (bilinear fallback)", s.Cfg.Scheme)
	}
	if m.Pool().InUse() != 1 {
		t.Fatalf("pool in use %d, want 1 (degraded stream holds no slot)", m.Pool().InUse())
	}
}

func TestQueueReadmissionAfterCapacityFrees(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyQueue})
	a, err := m.Register(spec("a", 0, 1, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Register(spec("b", 10*time.Second, 2, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued || m.QueueDepth() != 1 {
		t.Fatalf("b: state %s queue %d, want queued/1", b.State, m.QueueDepth())
	}
	// a departs at t=30s; b should be admitted exactly then, having waited
	// 20s of virtual time under backpressure.
	m.Finish()
	if a.State != StateTorndown {
		t.Fatalf("a: state %s, want torndown", a.State)
	}
	if b.State != StateTorndown || b.AdmitAt != 30*time.Second {
		t.Fatalf("b: state %s admit at %v, want torndown at 30s", b.State, b.AdmitAt)
	}
	if got := b.AdmitLatency(); got != 20*time.Second {
		t.Fatalf("b admit latency %v, want 20s", got)
	}
	if m.Pool().InUse() != 0 {
		t.Fatalf("pool in use %d after drain, want 0", m.Pool().InUse())
	}
}

func TestExplicitTeardownFreesQueuedStream(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyQueue})
	if _, err := m.Register(spec("a", 0, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	b, err := m.Register(spec("b", time.Second, 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Teardown("a"); err != nil {
		t.Fatal(err)
	}
	if b.State != StateIngesting || b.AdmitAt != time.Second {
		t.Fatalf("b after a's teardown: state %s admit %v, want ingesting at 1s", b.State, b.AdmitAt)
	}
	if err := m.Teardown("nope"); err == nil {
		t.Fatal("teardown of unknown key succeeded")
	}
}

// TestTeardownMidEpochReleasesPool cancels a live ingest mid-run and
// checks the stream's GPU slots are released and no goroutine of the
// session outlives it — the goroutine-leak contract teardown must keep.
func TestTeardownMidEpochReleasesPool(t *testing.T) {
	// The process-wide shared pool starts GOMAXPROCS workers on first use
	// (sr.NewModel touches it) and is never joined; start it before the
	// baseline so only the stream's own goroutines are counted.
	nn.SharedPool()
	before := runtime.NumGoroutine()
	m := NewManager(Options{GPUs: 2})
	cfg := testCfg(5, 30*time.Second)
	if _, err := m.Register(StreamSpec{Key: "live", Cfg: cfg, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Ingest(ctx, "live")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the session enter its epochs
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest returned %v, want context.Canceled", err)
	}
	if err := m.Teardown("live"); err != nil {
		t.Fatal(err)
	}
	if m.Pool().InUse() != 0 {
		t.Fatalf("pool in use %d after teardown, want 0", m.Pool().InUse())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines %d > baseline %d after mid-epoch teardown", got, before)
	}
}

func TestIngestLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full session")
	}
	m := NewManager(Options{GPUs: 2})
	s, err := m.Register(spec("live", 0, 6, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateTrained || res.FramesDecoded == 0 {
		t.Fatalf("after ingest: state %s frames %d", s.State, res.FramesDecoded)
	}
	if res.Cfg.ChannelKey != "live" {
		t.Fatalf("session config channel key %q, want live", res.Cfg.ChannelKey)
	}
	if err := m.Teardown("live"); err != nil {
		t.Fatal(err)
	}
	if s.State != StateTorndown {
		t.Fatalf("after teardown: state %s", s.State)
	}
}

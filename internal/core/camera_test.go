package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"livenas/internal/frame"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// cameraTestConfig is a short WebRTC session: the camera does not depend on
// the scheme, and no training keeps these runs cheap.
func cameraTestConfig() Config {
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = trace.FCCUplink(23, time.Minute, 250)
	cfg.Scheme = SchemeWebRTC
	cfg.Duration = 3 * time.Second
	return cfg
}

// cancelAfter is a context whose Err reports Canceled from its (left+1)-th
// call on, and which counts its calls. RunContext polls only Err.
type cancelAfter struct {
	context.Context
	left, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestRunContextJoinsCamera: RunContext joins the camera goroutine on every
// return, whether the session completes or its context is cancelled at any
// event boundary, the first and the final check included. A return that
// skipped the join would leave one goroutine, with the frame it is
// rendering, behind every cancelled sweep session.
func TestRunContextJoinsCamera(t *testing.T) {
	cfg := cameraTestConfig()
	cfg.Duration = 20 * time.Second
	// A run that never cancels counts the boundaries (and takes anything
	// process-wide a first session sets up out of the baseline).
	probe := &cancelAfter{Context: context.Background(), left: 1 << 30}
	if _, err := RunContext(probe, cfg); err != nil {
		t.Fatal(err)
	}
	n := probe.calls
	if n < 4 {
		t.Fatalf("a %v session checks its context %d times; want a spread of boundaries", cfg.Duration, n)
	}
	settled := func(t *testing.T, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%d goroutines outlive RunContext (had %d before it)", got, before)
		}
	}
	for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
		before := runtime.NumGoroutine()
		res, err := RunContext(&cancelAfter{Context: context.Background(), left: k}, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancelled after %d of %d checks: got %v, %v; want nil, Canceled", k, n, res, err)
		}
		settled(t, before)
	}
	before := runtime.NumGoroutine()
	if _, err := RunContext(&cancelAfter{Context: context.Background(), left: n}, cfg); err != nil {
		t.Fatalf("a run allowed all %d checks: %v", n, err)
	}
	settled(t, before)
}

func sameFrame(a, b *frame.Frame) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

// TestCameraHitsEveryCapture: a simulated session renders no capture
// inline, at a period that is a whole number of nanoseconds and at one that
// is not; a camera whose every prediction missed would give the same bytes
// and gain nothing. A client driven off the camera's schedule, as the socket
// client's wall-clock ticker would drive it, still captures exactly
// FrameAt(now) and its Downscale.
func TestCameraHitsEveryCapture(t *testing.T) {
	for _, fps := range []float64{10, 30} {
		cfg := cameraTestConfig()
		cfg.FPS = fps
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FramesDecoded == 0 {
			t.Fatalf("%v fps: the session decoded no frames", fps)
		}
		if res.inlineCaptures != 0 {
			t.Errorf("%v fps: %d captures rendered inline; the camera should have rendered them all", fps, res.inlineCaptures)
		}
	}

	cfg := cameraTestConfig()
	cfg.Scheme = SchemeLiveNAS // patches: crops of the native frame
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, 10)
	const period, end = 100 * time.Millisecond, 2 * time.Second
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// A hit needs the previous instant plus one period exactly, or 0 first.
	times := []time.Duration{0, ms(100), ms(233), ms(333), ms(350), ms(500), ms(600), ms(600),
		time.Second + 1, ms(1950), ms(2050)}
	const wantMisses = 7 // 233, 350, 500, the repeated 600, 1 s + 1 ns, 1950, 2050 (past end)

	var now time.Duration
	patches := 0
	client := func(withCamera bool) (*Client, *[][]byte) {
		var sent [][]byte
		c, err := NewClient(cfg, src, func() time.Duration { return now }, func(u Unit) {
			sent = append(sent, u.Data)
			if u.Patch {
				patches++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if withCamera {
			c.cam = startCamera(src, c.scale, period, end)
			t.Cleanup(c.cam.stop)
		}
		return c, &sent
	}

	// The shot against the inline render, instant by instant.
	c, _ := client(true)
	for _, at := range times {
		raw, lr := c.shoot(at)
		want := src.FrameAt(at.Seconds())
		if !sameFrame(raw, want) || !sameFrame(lr, want.Downscale(c.scale)) {
			t.Fatalf("capture at %v differs from FrameAt and Downscale", at)
		}
	}
	if c.cam.misses != wantMisses {
		t.Fatalf("%d of %d captures missed the camera; want %d", c.cam.misses, len(times), wantMisses)
	}

	// Whole captures: the same frames and patches leave a client with a
	// camera and one without.
	withCam, camSent := client(true)
	inline, inlineSent := client(false)
	for _, at := range times {
		now = at
		withCam.Capture()
		inline.Capture()
	}
	if patches == 0 {
		t.Fatal("no patch left either client")
	}
	if len(*camSent) != len(*inlineSent) {
		t.Fatalf("%d units sent with the camera, %d without", len(*camSent), len(*inlineSent))
	}
	for i := range *camSent {
		if !bytes.Equal((*camSent)[i], (*inlineSent)[i]) {
			t.Fatalf("unit %d differs with the camera", i)
		}
	}
}

// TestCameraBoundedAhead: a stalled session finds the camera exactly
// cameraDepth captures ahead of the last one it took and waiting there,
// never further, on the camera's first run and on the run a miss starts;
// it never renders an instant past end; and stop joins it while it waits
// for a slot in a full queue.
func TestCameraBoundedAhead(t *testing.T) {
	cfg := cameraTestConfig()
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, 10)
	const period, end = 100 * time.Millisecond, time.Second
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// ahead waits for the camera to render the instant want, then gives it
	// time to overrun, and requires its latest render to be exactly want.
	ahead := func(t *testing.T, cam *camera, want time.Duration) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Duration(cam.latest.Load()) < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
		if got := time.Duration(cam.latest.Load()); got != want {
			t.Fatalf("the camera's latest render is at %v; want %v", got, want)
		}
	}
	joins := func(t *testing.T, cam *camera) {
		t.Helper()
		stopped := make(chan struct{})
		go func() {
			cam.stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("stop did not join the camera goroutine")
		}
	}

	t.Run("run", func(t *testing.T) {
		cam := startCamera(src, cfg.Scale(), period, end)
		ahead(t, cam, (cameraDepth-1)*period)
		for now := time.Duration(0); now <= end; now += period {
			if _, ok := cam.take(now); !ok {
				t.Fatalf("capture at %v missed the camera", now)
			}
			ahead(t, cam, min(now+cameraDepth*period, end))
		}
		joins(t, cam)
		if cam.misses != 0 {
			t.Fatalf("%d misses on the camera's own schedule", cam.misses)
		}
	})

	t.Run("restart", func(t *testing.T) {
		cam := startCamera(src, cfg.Scale(), period, end)
		ahead(t, cam, (cameraDepth-1)*period)
		// Off the schedule: the queue's shots are dropped and a new run
		// starts at 350 ms.
		if _, ok := cam.take(ms(250)); ok {
			t.Fatal("capture at 250 ms hit a camera that rendered 0 and 100 ms")
		}
		ahead(t, cam, ms(250)+cameraDepth*period)
		if _, ok := cam.take(ms(350)); !ok {
			t.Fatal("capture at 350 ms missed the restarted camera")
		}
		ahead(t, cam, ms(350)+cameraDepth*period)
		// A run that reaches end stops there: from 950 ms, one instant.
		if _, ok := cam.take(ms(850)); ok {
			t.Fatal("capture at 850 ms hit a camera that rendered up to 550 ms")
		}
		ahead(t, cam, ms(950))
		if _, ok := cam.take(ms(950)); !ok {
			t.Fatal("capture at 950 ms missed the restarted camera")
		}
		if _, ok := cam.take(ms(1050)); ok {
			t.Fatal("a capture past end hit the camera")
		}
		ahead(t, cam, ms(950))
		joins(t, cam)
		if cam.misses != 3 {
			t.Fatalf("%d misses; want 3 (250 ms, 850 ms, 1050 ms)", cam.misses)
		}
	})

	t.Run("stop while full", func(t *testing.T) {
		cam := startCamera(src, cfg.Scale(), period, end)
		ahead(t, cam, (cameraDepth-1)*period)
		joins(t, cam)
	})
}

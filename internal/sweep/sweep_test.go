package sweep

import (
	"bytes"
	"context"
	"encoding/gob"
	"runtime"
	"testing"
	"time"

	"livenas/internal/core"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// testConfig is a reduced-scale session cheap enough to sweep in tests:
// the same 1/5-linear-resolution, x2-SR world the core suite uses.
func testConfig(cat vidgen.Category, seed int64) core.Config {
	return core.Config{
		Cat:           cat,
		Seed:          7,
		Native:        trace.Resolution{Name: "384x216", W: 384, H: 216},
		Ingest:        trace.Resolution{Name: "192x108", W: 192, H: 108},
		FPS:           10,
		Duration:      10 * time.Second,
		Trace:         trace.FCCUplink(seed, time.Minute, 250),
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
	}
}

// encode canonicalizes a Results for bitwise comparison.
func encode(t *testing.T, r *core.Results) []byte {
	t.Helper()
	r.TrainerTimeline()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatalf("encoding results: %v", err)
	}
	return buf.Bytes()
}

func sweepOnce(t *testing.T, workers int, cache *Cache) ([]*core.Results, Stats) {
	t.Helper()
	r := New(context.Background(), Options{Workers: workers, Cache: cache})
	r.GoGrid(Grid{
		Base:    testConfig(vidgen.JustChatting, 3),
		Schemes: []core.Scheme{core.SchemeWebRTC, core.SchemeLiveNAS},
		Traces:  []*trace.Trace{trace.FCCUplink(3, time.Minute, 250), trace.FCCUplink(4, time.Minute, 220)},
	})
	res, err := r.Collect()
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	return res, r.Stats()
}

// TestDeterminismAcrossWorkers is the engine's core contract: a sweep's
// results are byte-identical whether sessions run serially or concurrently.
func TestDeterminismAcrossWorkers(t *testing.T) {
	serial, _ := sweepOnce(t, 1, nil)
	parallel, stats := sweepOnce(t, 8, nil)
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("got %d/%d results, want 4", len(serial), len(parallel))
	}
	if stats.Executed != 4 {
		t.Fatalf("parallel sweep executed %d sessions, want 4", stats.Executed)
	}
	for i := range serial {
		if !bytes.Equal(encode(t, serial[i]), encode(t, parallel[i])) {
			t.Errorf("slot %d: workers=8 results differ from workers=1", i)
		}
	}
}

// TestMemoization: identical submissions share one execution and one slot
// value, preserving submission-order collection.
func TestMemoization(t *testing.T) {
	r := New(context.Background(), Options{Workers: 4})
	cfg := testConfig(vidgen.JustChatting, 5)
	cfg.Duration = 5 * time.Second
	h1 := r.Go(cfg)
	cfg.Telemetry = telemetry.New() // not part of the session's identity
	h2 := r.Go(cfg)
	if h1 != h2 {
		t.Fatal("identical canonical configs did not share a handle")
	}
	res, err := r.Collect()
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if len(res) != 2 || res[0] != res[1] {
		t.Fatalf("want the shared result in both submission slots, got %d slots", len(res))
	}
	if s := r.Stats(); s.Started != 1 || s.Executed != 1 {
		t.Fatalf("started=%d executed=%d, want 1/1", s.Started, s.Executed)
	}
}

// TestCacheRoundTrip: a second sweep over a warm cache executes zero new
// sessions and restores byte-identical results; entries from a different
// code version self-invalidate.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := sweepOnce(t, 4, cache)
	if coldStats.Cached != 0 || coldStats.Executed != 4 {
		t.Fatalf("cold sweep: cached=%d executed=%d, want 0/4", coldStats.Cached, coldStats.Executed)
	}
	if n := cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4", n)
	}

	warm, warmStats := sweepOnce(t, 4, cache)
	if warmStats.Executed != 0 || warmStats.Cached != 4 {
		t.Fatalf("warm sweep: cached=%d executed=%d, want 4/0", warmStats.Cached, warmStats.Executed)
	}
	for i := range cold {
		if !bytes.Equal(encode(t, cold[i]), encode(t, warm[i])) {
			t.Errorf("slot %d: cached results differ from live run", i)
		}
	}
	if tl := warm[1].TrainerTimeline(); len(tl) == 0 {
		t.Error("restored LiveNAS session lost its trainer timeline")
	}

	// A version bump must turn every entry into a miss (and clean it up).
	stale := &Cache{dir: cache.dir, version: cache.version + "-next"}
	if _, ok := stale.Get(firstKey(t, cache)); ok {
		t.Fatal("stale-version entry served as a hit")
	}
	if n := cache.Len(); n != 3 {
		t.Fatalf("stale entry not removed: cache holds %d entries, want 3", n)
	}
}

func firstKey(t *testing.T, c *Cache) string {
	t.Helper()
	key, err := ConfigKey(canonical(testConfig(vidgen.JustChatting, 3)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestConfigKeyIdentity: the cache key ignores live state (Telemetry) but
// tracks anything that changes results.
func TestConfigKeyIdentity(t *testing.T) {
	a := testConfig(vidgen.JustChatting, 3)
	b := a
	b.Duration = 0 // defaults to 60s, a real behavioral difference from a's 10s
	ka, err := ConfigKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ConfigKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("different durations hashed to the same key")
	}
	c := a
	c.Telemetry = nil
	kc, _ := ConfigKey(c)
	if ka != kc {
		t.Fatal("telemetry pointer leaked into the cache key")
	}
	d := canonical(a)
	d.Seed = 8
	kd, _ := ConfigKey(d)
	if kd == ka {
		t.Fatal("seed change did not change the key")
	}
}

// TestCancellation: cancelling mid-sweep fails pending sessions promptly
// and leaks neither sweep goroutines nor kernel workers.
func TestCancellation(t *testing.T) {
	// Warm the shared kernel pool (and any lazy runtime machinery) so the
	// goroutine baseline below is the steady state.
	warm := testConfig(vidgen.JustChatting, 9)
	warm.Duration = 2 * time.Second
	warm.Scheme = core.SchemeLiveNAS
	if _, err := core.RunContext(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	r := New(ctx, Options{Workers: 2})
	var hs []*Handle
	for seed := int64(0); seed < 6; seed++ {
		cfg := testConfig(vidgen.JustChatting, 10+seed)
		cfg.Duration = 5 * time.Minute // far longer than the test: must be cut short
		hs = append(hs, r.Go(cfg))
	}
	time.Sleep(50 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	var collectErr error
	go func() {
		defer close(done)
		_, collectErr = r.Collect()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Collect did not return after cancellation")
	}
	if collectErr == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	failed := 0
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no session observed the cancellation")
	}
	if s := r.Stats(); s.Failed != failed {
		t.Fatalf("stats report %d failed, handles report %d", s.Failed, failed)
	}

	// All sweep goroutines must be gone; only the persistent shared kernel
	// pool (already in the baseline) may remain.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGrid: cartesian expansion with deterministic ordering and implicit
// single points for empty axes.
func TestGrid(t *testing.T) {
	base := testConfig(vidgen.JustChatting, 3)
	g := Grid{
		Base:     base,
		Schemes:  []core.Scheme{core.SchemeWebRTC, core.SchemeLiveNAS},
		Policies: []core.TrainPolicy{core.TrainAdaptive, core.TrainContinuous, core.TrainOneTime},
	}
	if g.Size() != 6 {
		t.Fatalf("Size=%d, want 6", g.Size())
	}
	pts := g.Points()
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	// Schemes are the outer loop, policies the inner one.
	if pts[0].Scheme != core.SchemeWebRTC || pts[3].Scheme != core.SchemeLiveNAS {
		t.Error("scheme axis not outermost")
	}
	if pts[1].Policy != core.TrainContinuous {
		t.Error("policy axis not innermost")
	}
	for _, p := range pts {
		if p.Trace != base.Trace || p.Config.Cat != base.Cat {
			t.Error("empty axes must keep the base value")
		}
		if p.Config.Scheme != p.Scheme || p.Config.TrainPolicy != p.Policy {
			t.Error("point config does not match its axis values")
		}
	}
}

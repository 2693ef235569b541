package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"livenas/internal/codec"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Full-session runs are the expensive part of this suite; share them.
var (
	runOnce     sync.Once
	webrtcRes   *Results
	livenasRes  *Results
	genericRes  *Results
	sharedTrace *trace.Trace
)

// defaultTestConfig is the reduced-scale configuration shared by core tests:
// a "1080p-class" pipeline at 1/5 linear resolution, x2 super-resolution.
func defaultTestConfig(cat vidgen.Category) Config {
	return Config{
		Cat:         cat,
		Seed:        7,
		Native:      trace.Resolution{Name: "384x216", W: 384, H: 216},
		Ingest:      trace.Resolution{Name: "192x108", W: 192, H: 108},
		FPS:         10,
		Duration:    40 * time.Second,
		Scheme:      SchemeLiveNAS,
		TrainPolicy: TrainAdaptive,
		PatchSize:   24, // 16x9 grid over 384x216, as the paper's 120 over 1080p
		MetricEvery: 2 * time.Second,
		Channels:    6,
		// Bitrate floors and scheduler steps scaled with frame area
		// (1/25 of 1080p-class).
		MinVideoKbps:  40,
		GCCInitKbps:   160,
		MTU:           240,
		StepKbps:      20,
		InitPatchKbps: 20,
		MinPatchKbps:  5,
	}
}

// skipLongUnderRace exempts full-session quality tests from the -race tier:
// their numeric assertions are covered by the plain `go test` tier, and the
// detector's ~10x slowdown on the NN hot loops would push the suite past any
// reasonable timeout. TestSessionConcurrencySmoke keeps the concurrent
// session machinery under the detector instead.
func skipLongUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("full-session quality test: skipped under -race (see TestSessionConcurrencySmoke)")
	}
}

// TestSessionConcurrencySmoke runs one short LiveNAS session with
// multi-goroutine training and inference enabled, so `go test -race
// ./internal/core` drives the trainer's shard goroutines, the processor's
// strip goroutines and the client's camera through the real session loop. Assertions
// are sanity-only; quality thresholds belong to the plain tier.
func TestSessionConcurrencySmoke(t *testing.T) {
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = trace.FCCUplink(19, time.Minute, 250)
	cfg.Duration = 15 * time.Second
	cfg.TrainGPUs = 2
	cfg.InferGPUs = 2
	r := Run(cfg)
	if r.FramesDecoded == 0 {
		t.Fatal("smoke session decoded no frames")
	}
	if r.GPUTrainBusy <= 0 {
		t.Fatal("smoke session never trained")
	}
}

func sharedRuns(t *testing.T) (*Results, *Results, *Results) {
	t.Helper()
	runOnce.Do(func() {
		sharedTrace = trace.FCCUplink(3, 3*time.Minute, 250)
		mk := func(s Scheme) *Results {
			cfg := defaultTestConfig(vidgen.JustChatting)
			cfg.Trace = sharedTrace
			cfg.Scheme = s
			cfg.Duration = 60 * time.Second
			return Run(cfg)
		}
		webrtcRes = mk(SchemeWebRTC)
		genericRes = mk(SchemeGeneric)
		livenasRes = mk(SchemeLiveNAS)
	})
	return webrtcRes, genericRes, livenasRes
}

func TestLiveNASBeatsWebRTC(t *testing.T) {
	skipLongUnderRace(t)
	web, _, lnas := sharedRuns(t)
	gain := lnas.GainOver(web)
	if gain < 0.8 {
		t.Fatalf("LiveNAS gain %.2f dB over WebRTC; want >= 0.8 (paper: 0.81-3.04)", gain)
	}
}

func TestLiveNASBeatsGeneric(t *testing.T) {
	skipLongUnderRace(t)
	_, gen, lnas := sharedRuns(t)
	if lnas.AvgPSNR <= gen.AvgPSNR {
		t.Fatalf("LiveNAS %.2f dB should beat generic SR %.2f dB", lnas.AvgPSNR, gen.AvgPSNR)
	}
}

func TestWebRTCSendsNoPatches(t *testing.T) {
	skipLongUnderRace(t)
	web, _, _ := sharedRuns(t)
	if web.PatchesSent != 0 || web.BytesPatch != 0 || web.AvgPatchKbps != 0 {
		t.Fatalf("WebRTC run sent patches: %+v", web.PatchesSent)
	}
	if web.GPUTrainBusy != 0 {
		t.Fatal("WebRTC run used training GPU")
	}
}

func TestLiveNASPatchShareModest(t *testing.T) {
	skipLongUnderRace(t)
	// §5.1 case study: ~8.9% of bandwidth went to patches on average. Ours
	// should be a modest minority share, never the majority.
	_, _, lnas := sharedRuns(t)
	if lnas.PatchesSent == 0 {
		t.Fatal("LiveNAS sent no patches")
	}
	share := lnas.AvgPatchKbps / lnas.AvgBandwidthKbps
	if share <= 0 || share > 0.5 {
		t.Fatalf("patch share %.2f outside (0, 0.5]", share)
	}
}

func TestConservativeBandwidthUse(t *testing.T) {
	skipLongUnderRace(t)
	// §3: WebRTC uses well under the available bandwidth. Utilisation must
	// be meaningfully below 1 and above a sanity floor.
	web, _, _ := sharedRuns(t)
	util := web.AvgBandwidthKbps / meanSeries(web.LinkRate)
	if util < 0.1 || util > 0.95 {
		t.Fatalf("WebRTC utilisation %.2f outside [0.1, 0.95]", util)
	}
}

func TestQualityMonotoneWithBandwidth(t *testing.T) {
	skipLongUnderRace(t)
	// Fig 2b premise: more bandwidth, higher WebRTC quality.
	run := func(scale float64) float64 {
		cfg := defaultTestConfig(vidgen.FoodCooking)
		cfg.Trace = trace.FCCUplink(9, 2*time.Minute, 150).Scale(scale)
		cfg.Scheme = SchemeWebRTC
		cfg.Duration = 30 * time.Second
		return Run(cfg).AvgPSNR
	}
	q1, q2 := run(1), run(3)
	if q2 <= q1 {
		t.Fatalf("x3 bandwidth PSNR %.2f not above x1 %.2f", q2, q1)
	}
}

func TestTimelineStartsTraining(t *testing.T) {
	skipLongUnderRace(t)
	_, _, lnas := sharedRuns(t)
	tl := lnas.TrainerTimeline()
	if len(tl) == 0 || tl[0].State != "training" {
		t.Fatalf("timeline %v should start in training", tl)
	}
}

func TestGPUBusyBounded(t *testing.T) {
	skipLongUnderRace(t)
	_, _, lnas := sharedRuns(t)
	if lnas.GPUTrainBusy <= 0 {
		t.Fatal("LiveNAS trained for zero time")
	}
	if lnas.GPUTrainBusy > lnas.Cfg.Duration {
		t.Fatalf("GPU busy %v exceeds stream duration", lnas.GPUTrainBusy)
	}
	if s := lnas.TrainingShare(); s <= 0 || s > 1 {
		t.Fatalf("training share %v", s)
	}
}

// TestDeterministicRuns: two runs of one LiveNAS session encode to the
// same bytes, every field of Results included, and so does a third run on
// one core. The session is lossy and trains and infers on two GPUs, so the
// sampler's shuffled grid pass, the link's loss draws, the trainer's shard
// fan-out, the processor's strip fan-out and the camera rendering ahead of
// the encoder all reach the compared bytes: a global rand source, a
// wall-clock field, shard results recorded in completion order, or a frame
// shared between the camera and the session makes them differ.
func TestDeterministicRuns(t *testing.T) {
	skipLongUnderRace(t)
	cfg := defaultTestConfig(vidgen.Podcast)
	cfg.Trace = trace.FCCUplink(5, time.Minute, 200)
	cfg.Duration = 12 * time.Second
	cfg.LossRate = 0.02
	cfg.TrainGPUs = 2
	cfg.InferGPUs = 2
	a, b := Run(cfg), Run(cfg)
	oneCore := func() *Results {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return Run(cfg)
	}()
	if a.PatchesSent == 0 || a.GPUTrainBusy == 0 || a.LinkStats.Dropped == 0 {
		t.Fatalf("session misses the sampler, the trainer or the loss: %d patches, %v training, %d drops",
			a.PatchesSent, a.GPUTrainBusy, a.LinkStats.Dropped)
	}
	if !bytes.Equal(encodeResults(t, a), encodeResults(t, b)) {
		t.Fatalf("runs differ: PSNR %v vs %v, patches %d vs %d, bandwidth %v vs %v",
			a.AvgPSNR, b.AvgPSNR, a.PatchesSent, b.PatchesSent, a.AvgBandwidthKbps, b.AvgBandwidthKbps)
	}
	if !bytes.Equal(encodeResults(t, a), encodeResults(t, oneCore)) {
		t.Fatalf("the run on one core differs: PSNR %v vs %v, patches %d vs %d, bandwidth %v vs %v",
			a.AvgPSNR, oneCore.AvgPSNR, a.PatchesSent, oneCore.PatchesSent, a.AvgBandwidthKbps, oneCore.AvgBandwidthKbps)
	}
}

// encodeResults gob-encodes r as the sweep cache persists it: the trainer
// timeline materialised, the live telemetry registry left out.
func encodeResults(t *testing.T, r *Results) []byte {
	t.Helper()
	r.TrainerTimeline()
	v := *r
	v.Cfg.Telemetry = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("encoding results: %v", err)
	}
	return buf.Bytes()
}

func TestContinuousTrainsMoreThanAdaptive(t *testing.T) {
	skipLongUnderRace(t)
	// Fig 15: content-adaptive training uses a fraction of continuous GPU
	// time. Use a low-scene-change category so saturation actually occurs.
	mk := func(p TrainPolicy) *Results {
		cfg := defaultTestConfig(vidgen.Podcast)
		cfg.Trace = trace.FCCUplink(11, 3*time.Minute, 250)
		cfg.TrainPolicy = p
		cfg.Duration = 100 * time.Second
		return Run(cfg)
	}
	adaptive := mk(TrainAdaptive)
	continuous := mk(TrainContinuous)
	if continuous.GPUTrainBusy != continuous.Cfg.Duration/continuous.Cfg.EpochLen*continuous.Cfg.EpochLen {
		t.Fatalf("continuous policy should train every epoch, got %v", continuous.GPUTrainBusy)
	}
	if adaptive.GPUTrainBusy >= continuous.GPUTrainBusy {
		t.Fatalf("adaptive GPU %v should be below continuous %v", adaptive.GPUTrainBusy, continuous.GPUTrainBusy)
	}
	// And the quality cost must be modest (paper: "almost the same quality").
	if continuous.AvgPSNR-adaptive.AvgPSNR > 1.5 {
		t.Fatalf("adaptive quality %.2f too far below continuous %.2f", adaptive.AvgPSNR, continuous.AvgPSNR)
	}
}

func TestOneTimePolicyStopsTraining(t *testing.T) {
	skipLongUnderRace(t)
	cfg := defaultTestConfig(vidgen.Sports)
	cfg.Trace = trace.FCCUplink(13, 2*time.Minute, 250)
	cfg.TrainPolicy = TrainOneTime
	cfg.OneTimeWindow = 15 * time.Second
	cfg.Duration = 45 * time.Second
	r := Run(cfg)
	if r.GPUTrainBusy > 20*time.Second {
		t.Fatalf("one-time training ran %v, window was 15s", r.GPUTrainBusy)
	}
}

func TestVanillaFallbackUnderLowBandwidth(t *testing.T) {
	skipLongUnderRace(t)
	// §5.1: below the minimum encoding bitrate no patches are sent.
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = trace.FCCUplink(17, time.Minute, 200).Scale(0.1) // ~20 kbps links
	cfg.Duration = 20 * time.Second
	cfg.GCCInitKbps = 30 // start below MinVideoKbps
	r := Run(cfg)
	if r.PatchesSent > 2 {
		t.Fatalf("sent %d patches despite sub-minimum bandwidth", r.PatchesSent)
	}
}

func TestCodecAgnostic(t *testing.T) {
	skipLongUnderRace(t)
	// Fig 14: the gain exists under both codec profiles.
	mk := func(s Scheme, prof codec.Profile) *Results {
		cfg := defaultTestConfig(vidgen.JustChatting)
		cfg.Trace = sharedTraceOr()
		cfg.Scheme = s
		cfg.Profile = prof
		cfg.Duration = 45 * time.Second
		return Run(cfg)
	}
	for _, prof := range []codec.Profile{codec.BX8, codec.BX9} {
		web := mk(SchemeWebRTC, prof)
		ln := mk(SchemeLiveNAS, prof)
		if g := ln.GainOver(web); g < 0.5 {
			t.Fatalf("profile %v gain %.2f too small", prof, g)
		}
	}
}

func TestGradSeriesRecorded(t *testing.T) {
	skipLongUnderRace(t)
	_, _, lnas := sharedRuns(t)
	if len(lnas.Grad) < 10 {
		t.Fatalf("gradient series too short: %d", len(lnas.Grad))
	}
	for _, g := range lnas.Grad {
		if g.PatchKbps < 0 || g.VideoKbps < 0 {
			t.Fatalf("negative rates in grad point %+v", g)
		}
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	good := defaultTestConfig(vidgen.JustChatting)
	if err := good.Validate(); err != nil {
		t.Fatalf("default test config must validate: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Ingest = trace.Resolution{Name: "odd", W: 100, H: 100} },
		func(c *Config) { c.Ingest = trace.Resolution{Name: "neg", W: 192, H: -108} },
		func(c *Config) { c.Ingest = trace.Resolution{Name: "aniso", W: 192, H: 72} },
		func(c *Config) { c.PatchSize = 25 }, // not divisible by the x2 scale
	}
	for i, mutate := range bad {
		cfg := defaultTestConfig(vidgen.JustChatting)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d validated", i)
		}
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Fatalf("RunContext accepted bad config %d", i)
		}
	}
}

func TestScalePanicsOnBadGeometry(t *testing.T) {
	// Scale stays the post-validation accessor: on geometry Validate would
	// reject, it panics rather than returning a bogus factor.
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Ingest = trace.Resolution{Name: "odd", W: 100, H: 100}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg.Scale()
}

func TestRunContextCancellation(t *testing.T) {
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = sharedTraceOr()
	cfg.Duration = 10 * time.Minute // far longer than the test will allow
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if res != nil {
		t.Fatal("cancelled run must not return results")
	}
	// A run that ignored ctx until the end would take ~15 s here.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt abort at an event boundary", el)
	}
}

func TestNormalizedQualityCurves(t *testing.T) {
	for _, cat := range vidgen.Categories() {
		prev := 0.0
		for _, v := range []float64{100, 500, 1000, 4000, 8000} {
			nq := NormalizedQuality(cat, v)
			if nq <= prev || nq > 1.0001 {
				t.Fatalf("%v NQ(%v)=%v not increasing in (0,1]", cat, v, nq)
			}
			prev = nq
		}
		// Slope positive and decreasing (concavity).
		s1 := NormalizedQualitySlope(cat, 500)
		s2 := NormalizedQualitySlope(cat, 4000)
		if s1 <= 0 || s2 <= 0 || s2 >= s1 {
			t.Fatalf("%v slopes not concave: %v %v", cat, s1, s2)
		}
	}
	// Harder content (Fortnite) needs more rate for the same normalized
	// quality than Podcast.
	if NormalizedQuality(vidgen.Fortnite, 1000) >= NormalizedQuality(vidgen.Podcast, 1000) {
		t.Fatal("category difficulty ordering violated")
	}
}

// Helpers.

func sharedTraceOr() *trace.Trace {
	if sharedTrace != nil {
		return sharedTrace
	}
	return trace.FCCUplink(3, 3*time.Minute, 250)
}

func TestFunctionalCodecMode(t *testing.T) {
	skipLongUnderRace(t)
	// §9 extension: the functional-codec probe replaces the normalized
	// curve; the session must still work and reach comparable quality.
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = sharedTraceOr()
	cfg.Duration = 40 * time.Second
	cfg.FunctionalCodec = true
	r := Run(cfg)
	if r.FramesDecoded == 0 || r.PatchesSent == 0 {
		t.Fatal("functional-codec session did not run")
	}
	cfg.FunctionalCodec = false
	base := Run(cfg)
	if r.AvgPSNR < base.AvgPSNR-1.5 {
		t.Fatalf("functional probe %.2f dB far below curve estimate %.2f dB", r.AvgPSNR, base.AvgPSNR)
	}
}

func TestDeblockPipeline(t *testing.T) {
	skipLongUnderRace(t)
	// The in-loop deblocking option must run end-to-end without drift
	// (drift would show up as collapsing PSNR).
	cfg := defaultTestConfig(vidgen.Podcast)
	cfg.Trace = sharedTraceOr()
	cfg.Duration = 25 * time.Second
	cfg.Scheme = SchemeWebRTC
	plain := Run(cfg)
	cfg.Deblock = true
	filtered := Run(cfg)
	if filtered.FramesDecoded == 0 {
		t.Fatal("deblocked session decoded nothing")
	}
	if filtered.AvgPSNR < plain.AvgPSNR-1 {
		t.Fatalf("deblocking collapsed quality: %.2f vs %.2f", filtered.AvgPSNR, plain.AvgPSNR)
	}
}

func TestLossRecovery(t *testing.T) {
	skipLongUnderRace(t)
	// Under random packet loss the pipeline must lose frames, request key
	// frames, and keep delivering video (the §7 WebRTC-integration path).
	cfg := defaultTestConfig(vidgen.Sports)
	cfg.Trace = sharedTraceOr()
	cfg.Duration = 30 * time.Second
	cfg.LossRate = 0.03
	cfg.Scheme = SchemeWebRTC
	r := Run(cfg)
	if r.FramesLost == 0 {
		t.Fatal("3% loss produced no lost frames — loss path untested")
	}
	if r.FramesDecoded < 100 {
		t.Fatalf("stream did not recover: only %d frames decoded", r.FramesDecoded)
	}
	// Quality still reasonable (frozen frames during recovery are expected).
	if r.AvgPSNR < 14 {
		t.Fatalf("PSNR %.1f collapsed under 3%% loss", r.AvgPSNR)
	}
}

// TestQuantInt8Session runs one short LiveNAS session through the int8
// inference fast path and checks the wiring end to end: quantized frames
// are counted, the online quality gate sampled its patch trickle, and
// session quality did not collapse.
func TestQuantInt8Session(t *testing.T) {
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.Trace = trace.FCCUplink(23, time.Minute, 250)
	cfg.Duration = 15 * time.Second
	cfg.QuantInt8 = true
	r := Run(cfg)
	if r.FramesDecoded == 0 {
		t.Fatal("quant session decoded no frames")
	}
	reg := r.Telemetry()
	if n := reg.Counter("sr_quant_patches").Value(); n == 0 {
		t.Fatal("QuantInt8 session processed no frames on the int8 path")
	}
	if n := reg.Histogram("sr_quant_psnr_gap", nil).Count(); n == 0 {
		t.Fatal("quality gate never sampled the patch trickle")
	}
	if r.AvgPSNR < 14 {
		t.Fatalf("quantized session PSNR %.1f collapsed", r.AvgPSNR)
	}
	servingGolden(t, "quant-int8", r)
}

// servingGolden pins one serving mode's session to its line of
// testdata/serving-modes.golden: the exact frame counts, the mean inference
// latency, the int8 path's patch and gate counts and the deadline misses,
// with PSNR to six decimals so a one-pixel drift shows. There is no update
// flag, as in internal/exp: a missing line is written and the test fails
// once, so regenerating is rm + re-run.
func servingGolden(t *testing.T, mode string, r *Results) {
	t.Helper()
	reg := r.Telemetry()
	got := fmt.Sprintf("%s: AvgPSNR=%.6f FramesDecoded=%d FramesLost=%d AvgInferLatency=%v sr_quant_patches=%d sr_quant_psnr_gap=%d infer_deadline_miss=%d",
		mode, r.AvgPSNR, r.FramesDecoded, r.FramesLost, r.AvgInferLatency,
		reg.Counter("sr_quant_patches").Value(), reg.Histogram("sr_quant_psnr_gap", nil).Count(),
		reg.Counter("infer_deadline_miss").Value())
	path := filepath.Join("testdata", "serving-modes.golden")
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, mode+": ") {
			if line != got {
				t.Errorf("%s differs from %s (if intended: rm the file and re-run)\ngot:  %s\nwant: %s", mode, path, got, line)
			}
			return
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, got+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s had no %s line and it has been written; review it, commit it, re-run", path, mode)
}

// TestAnytimeBudgetSession runs a session under a per-frame anytime
// deadline and checks the scheduler's accounting: with a realistic budget
// frames still flow; with an impossible budget every frame records a
// deadline miss and quality degrades toward the bilinear floor, but the
// session survives.
func TestAnytimeBudgetSession(t *testing.T) {
	run := func(budget time.Duration) *Results {
		cfg := defaultTestConfig(vidgen.JustChatting)
		cfg.Trace = trace.FCCUplink(29, time.Minute, 250)
		cfg.Duration = 12 * time.Second
		cfg.QuantInt8 = true
		cfg.AnytimeBudget = budget
		return Run(cfg)
	}
	ok := run(50 * time.Millisecond)
	if ok.FramesDecoded == 0 {
		t.Fatal("anytime session decoded no frames")
	}
	if n := ok.Telemetry().Counter("infer_deadline_miss").Value(); n != 0 {
		t.Fatalf("50ms budget missed %d deadlines on a tiny frame", n)
	}
	servingGolden(t, "anytime-50ms", ok)
	tight := run(time.Nanosecond)
	if tight.FramesDecoded == 0 {
		t.Fatal("tight-budget session decoded no frames")
	}
	if n := tight.Telemetry().Counter("infer_deadline_miss").Value(); n == 0 {
		t.Fatal("sub-transfer budget recorded no deadline misses")
	}
}

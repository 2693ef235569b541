package core

import (
	"context"
	"fmt"
	"time"

	"livenas/internal/metrics"
	"livenas/internal/netem"
	"livenas/internal/sim"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// SeriesPoint is one point of a time series in an experiment's results.
type SeriesPoint struct {
	T time.Duration
	V float64
}

// QualitySample is one delivered-quality measurement against ground truth.
type QualitySample struct {
	T    time.Duration
	PSNR float64
	SSIM float64
}

// Results aggregates everything a session run produces; the experiment
// harness turns these into the paper's tables and figures.
type Results struct {
	Cfg Config

	Samples []QualitySample
	AvgPSNR float64
	AvgSSIM float64
	Grad    []GradPoint

	Bandwidth []SeriesPoint // GCC target, kbps
	Video     []SeriesPoint // video share, kbps
	Patch     []SeriesPoint // patch share, kbps
	LinkRate  []SeriesPoint // true available bandwidth, kbps

	// Timeline is the materialized trainer ON/OFF series (Figure 16). It is
	// populated lazily by TrainerTimeline from the live event trace and
	// persisted by the sweep session cache, so a cache round-trip (which
	// cannot carry the live registry) still answers TrainerTimeline.
	Timeline []StateChange

	GPUTrainBusy    time.Duration
	FramesDecoded   int
	FramesLost      int
	PatchesSent     int
	PatchesReceived int
	AvgE2ELatency   time.Duration
	AvgInferLatency time.Duration
	LinkStats       netem.Stats

	AvgBandwidthKbps float64
	AvgVideoKbps     float64
	AvgPatchKbps     float64
	BytesVideo       int
	BytesPatch       int

	// reg is the run's telemetry registry (Cfg.Telemetry, or the fresh one
	// Run installed). Accessed through Telemetry / TrainerTimeline /
	// TelemetrySummary rather than exported: the registry is live state, not
	// a result value.
	reg *telemetry.Registry
}

// Telemetry returns the run's telemetry registry: every counter, gauge and
// histogram the session touched plus the retained event trace.
func (r *Results) Telemetry() *telemetry.Registry { return r.reg }

// TrainerTimeline reconstructs the content-adaptive trainer's ON/OFF
// timeline (Figure 16) from the run's trainer_state events. The first entry
// is the state at t=0; each subsequent entry is a transition. The series is
// materialized into Timeline on first call; cached results restored without
// a live registry return the persisted Timeline as-is.
func (r *Results) TrainerTimeline() []StateChange {
	if r.Timeline == nil && r.reg != nil {
		for _, ev := range r.reg.EventsByType("trainer_state") {
			r.Timeline = append(r.Timeline, StateChange{T: ev.T, State: ev.StrField("state")})
		}
	}
	return r.Timeline
}

// TelemetrySummary condenses the run into the machine-readable summary the
// experiment harness writes for CI (scheduler split, trainer duty cycle,
// inference latency quantiles, plus every counter and gauge).
func (r *Results) TelemetrySummary() telemetry.RunSummary {
	s := telemetry.RunSummary{
		Scheme:           r.Cfg.Scheme.String(),
		Content:          r.Cfg.Cat.String(),
		DurationS:        r.Cfg.Duration.Seconds(),
		Channel:          r.Cfg.ChannelKey,
		AvgTargetKbps:    r.AvgBandwidthKbps,
		AvgVideoKbps:     r.AvgVideoKbps,
		AvgPatchKbps:     r.AvgPatchKbps,
		TrainerDutyCycle: r.TrainingShare(),
	}
	if r.AvgBandwidthKbps > 0 {
		s.PatchShare = r.AvgPatchKbps / r.AvgBandwidthKbps
	}
	if n := len(r.TrainerTimeline()); n > 1 {
		s.TrainerTransitions = n - 1 // first entry is the t=0 state
	}
	if r.reg != nil {
		snap := r.reg.Snapshot()
		if h, ok := snap.Histograms["core_infer_latency_ms"]; ok {
			s.InferFrames = h.Count
			s.InferP50MS = h.P50
			s.InferP99MS = h.P99
		}
		s.Counters = snap.Counters
		s.Gauges = snap.Gauges
	}
	return s
}

// Run executes one full ingest session on the discrete-event simulator and
// returns its results. It is deterministic for a fixed Config. Run is the
// legacy entry point: it panics on an invalid config and cannot be
// cancelled; new code should prefer RunContext.
func Run(cfg Config) *Results {
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// cancelCheckEvery is how many simulator events RunContext executes between
// context checks: frequent enough that cancellation lands within
// milliseconds of wall time, rare enough that the check cost vanishes
// against event execution.
const cancelCheckEvery = 512

// RunContext executes one full ingest session on the discrete-event
// simulator and returns its results. It is deterministic for a fixed
// Config: the context bounds the run but never influences results — a run
// that completes is bitwise identical whatever context carried it.
//
// The config is validated up front (Config.Validate) and geometry errors
// are returned rather than panicking. Cancellation is observed at
// simulator-event boundaries: when ctx is cancelled mid-run, RunContext
// releases session resources (dedicated kernel-pool workers are joined) and
// returns ctx's error with nil Results.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry
	reg.Emit(0, "session_start",
		telemetry.Str("channel", cfg.ChannelKey),
		telemetry.Str("scheme", cfg.Scheme.String()),
		telemetry.Num("train_gpus", float64(cfg.TrainGPUs)),
		telemetry.Num("infer_gpus", float64(cfg.InferGPUs)),
	)

	s := sim.New()
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)

	var cl *client
	notify := func(m serverMsg) {
		s.After(cfg.PropDelay, func() {
			if cl != nil {
				cl.onServerMsg(m)
			}
		})
	}
	sv := newServer(s, cfg, notify)

	wireSeq := 0
	link := netem.NewLink(s, cfg.Trace, cfg.PropDelay, cfg.QueueCap, sv.onWirePacket)
	if cfg.LossRate > 0 {
		link.SetLossRate(cfg.LossRate, cfg.Seed^0x10c5)
	}
	pacer := transport.NewPacer(s, cfg.GCCInitKbps, func(f transport.Fragment) {
		link.Send(netem.Packet{Seq: wireSeq, Size: f.WireSize(), Payload: f})
		wireSeq++
	})
	pacer.SetTelemetry(reg)
	cl = newClient(s, cfg, src, pacer)

	res := &Results{Cfg: cfg, reg: reg}

	// Periodic processes.
	frameGap := time.Duration(float64(time.Second) / cfg.FPS)
	var capture func()
	capture = func() {
		cl.onCapture()
		s.After(frameGap, capture)
	}
	s.At(0, capture)

	var sched func()
	sched = func() {
		cl.onSchedule()
		s.After(cfg.UpdateEvery, sched)
	}
	s.After(cfg.UpdateEvery, sched)

	var fb func()
	fb = func() {
		sv.onFeedbackTick()
		s.After(100*time.Millisecond, fb)
	}
	s.After(100*time.Millisecond, fb)

	var epoch func()
	epoch = func() {
		sv.onEpochTick()
		s.After(cfg.EpochLen, epoch)
	}
	s.After(cfg.EpochLen, epoch)

	// The metric loop observes the viewer-facing inference latency into
	// core_infer_latency_ms; this histogram (not sr_infer_latency_ms, which
	// only exists when an SR processor does) backs the run summary's p50/p99
	// so the WebRTC baseline reports latency too.
	hInfer := reg.Histogram("core_infer_latency_ms", telemetry.ExpBuckets(0.25, 1.5, 24))
	var inferLatSum time.Duration
	var inferLatN int
	var metric func()
	metric = func() {
		now := s.Now()
		out, capAt, lat, ok := sv.output()
		if ok {
			gt := src.FrameAt(capAt.Seconds())
			qs := QualitySample{T: now, PSNR: metrics.PSNR(gt, out)}
			if cfg.MeasureSSIM {
				qs.SSIM = metrics.SSIM(gt, out)
			}
			res.Samples = append(res.Samples, qs)
			inferLatSum += lat
			inferLatN++
			latMS := float64(lat) / float64(time.Millisecond)
			hInfer.Observe(latMS)
			reg.Emit(now, "infer_frame",
				telemetry.Num("latency_ms", latMS),
				telemetry.Num("psnr_db", qs.PSNR),
			)
		}
		res.Bandwidth = append(res.Bandwidth, SeriesPoint{now, cl.ctrl.TargetKbps()})
		res.Video = append(res.Video, SeriesPoint{now, cl.videoKbps()})
		res.Patch = append(res.Patch, SeriesPoint{now, cl.currentPatchKbps()})
		res.LinkRate = append(res.LinkRate, SeriesPoint{now, link.RateAt(now)})
		s.After(cfg.MetricEvery, metric)
	}
	s.After(cfg.MetricEvery, metric)

	for s.StepUntil(cfg.Duration, cancelCheckEvery) {
		if err := ctx.Err(); err != nil {
			// Abandon the run at an event boundary: no simulator callback is
			// in flight.
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate.
	var psnrs, ssims []float64
	for _, q := range res.Samples {
		psnrs = append(psnrs, q.PSNR)
		ssims = append(ssims, q.SSIM)
	}
	res.AvgPSNR = metrics.Mean(psnrs)
	res.AvgSSIM = metrics.Mean(ssims)
	res.Grad = cl.gradSeries
	res.GPUTrainBusy = sv.gpuTrainBusy
	res.FramesDecoded = sv.framesDecoded
	res.FramesLost = sv.framesLost
	res.PatchesSent = cl.patchesSent
	res.PatchesReceived = sv.patchesReceived
	res.LinkStats = link.Stats()
	res.BytesVideo = cl.videoBytesSent
	res.BytesPatch = cl.patchBytesSent
	if sv.e2eLatencyN > 0 {
		res.AvgE2ELatency = sv.e2eLatencySum / time.Duration(sv.e2eLatencyN)
	}
	if inferLatN > 0 {
		res.AvgInferLatency = inferLatSum / time.Duration(inferLatN)
	}
	res.AvgBandwidthKbps = meanSeries(res.Bandwidth)
	res.AvgVideoKbps = meanSeries(res.Video)
	res.AvgPatchKbps = meanSeries(res.Patch)
	return res, nil
}

func meanSeries(ps []SeriesPoint) float64 {
	if len(ps) == 0 {
		return 0
	}
	var s float64
	for _, p := range ps {
		s += p.V
	}
	return s / float64(len(ps))
}

// GainOver returns the PSNR gain of r over a baseline run (typically
// SchemeWebRTC on the same trace/content), the paper's headline metric.
func (r *Results) GainOver(base *Results) float64 {
	return r.AvgPSNR - base.AvgPSNR
}

// TrainingShare returns simulated GPU training time as a fraction of the
// stream duration (Figures 9d, 10d, 15).
func (r *Results) TrainingShare() float64 {
	if r.Cfg.Duration <= 0 {
		return 0
	}
	return r.GPUTrainBusy.Seconds() / r.Cfg.Duration.Seconds()
}

// ReducedResolution scales a resolution class down by an integer divisor.
// Tests and the experiment harness's fast mode run the full pipeline at
// reduced pixel counts (e.g. a "1080p-class" stream at 384x216) so that
// hundreds of simulated sessions stay CPU-cheap; every algorithm under test
// is resolution-agnostic.
func ReducedResolution(r trace.Resolution, div int) trace.Resolution {
	return trace.Resolution{
		Name: fmt.Sprintf("%s/%d", r.Name, div),
		W:    r.W / div,
		H:    r.H / div,
	}
}

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

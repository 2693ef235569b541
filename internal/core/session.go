package core

import (
	"context"
	"fmt"
	"time"

	"livenas/internal/codec"
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

	// inlineCaptures counts the captures the camera had not rendered ahead
	// and Capture rendered inline. It describes how the run executed, not
	// what it produced, so it is unexported and the sweep cache drops it.
	inlineCaptures int

	// reg is the run's telemetry registry (Cfg.Telemetry, or the fresh one
	// Run installed). Accessed through Telemetry / TrainerTimeline /
	// TelemetrySummary rather than exported: the registry is live state, not
	// a result value.
	reg *telemetry.Registry
}

// Telemetry returns the run's telemetry registry: every counter and
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
// inference latency quantiles, plus every counter).
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

// pacingFactor releases packets at a multiple of the target bitrate, as
// WebRTC's pacer does (factor 2.5): the pacer smooths frame bursts without
// becoming a standing self-inflicted queue, so queuing delay observed by the
// congestion controller reflects the network, not the sender.
const pacingFactor = 2.5

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
// The config is validated up front (NewServer runs Config.Validate) and
// geometry errors are returned rather than panicking. Cancellation is
// observed at simulator-event boundaries: when ctx is cancelled mid-run,
// RunContext releases session resources (dedicated kernel-pool workers are
// joined) and returns ctx's error with nil Results. The client's camera
// goroutine is joined on every return.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	s := sim.New()
	sv, err := NewServer(cfg, s.Now)
	if err != nil {
		return nil, err
	}
	cfg = sv.cfg // validated and defaulted
	reg := cfg.Telemetry
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)

	// The server's receive side of the link: transport feedback per packet,
	// reassembly into whole frames and patches, and lost frames.
	fbc := transport.NewFeedbackCollector(100 * time.Millisecond)
	reasm := transport.NewReassembler()
	reasm.OnComplete = func(a transport.Assembled) {
		// The client's Unit rides on the first fragment.
		if u := a.Meta.(Unit); u.Patch {
			sv.Patch(u.FrameID, u.X, u.Y, a.Data)
		} else {
			sv.Video(&codec.EncodedFrame{Data: a.Data, Key: u.Key, QP: u.QP, Seq: u.FrameID}, u.CaptureAt)
		}
	}
	reasm.OnLoss = func(k transport.Kind, _ int) {
		// A lost patch is simply a lost training sample.
		if k == transport.KindVideo {
			sv.onFrameLost()
		}
	}

	wireSeq := 0
	link := netem.NewLink(s, cfg.Trace, cfg.PropDelay, cfg.QueueCap, func(p netem.Packet) {
		fbc.OnPacket(p.Seq, p.Size, p.SentAt, s.Now())
		reasm.Add(p.Payload.(transport.Fragment), s.Now())
	})
	if cfg.LossRate > 0 {
		link.SetLossRate(cfg.LossRate, cfg.Seed^0x10c5)
	}
	pacer := transport.NewPacer(s, cfg.GCCInitKbps, func(f transport.Fragment) {
		link.Send(netem.Packet{Seq: wireSeq, Size: f.WireSize(), Payload: f})
		wireSeq++
	})
	// The client hands over whole units; the link carries them as
	// MTU-sized fragments behind the pacer, patches numbered apart.
	var wireBytes [2]int // by transport.Kind
	patches := 0
	cl, err := NewClient(cfg, src, s.Now, func(u Unit) {
		kind, id := transport.KindVideo, u.FrameID
		if u.Patch {
			kind, id = transport.KindPatch, patches
			patches++
		}
		for _, f := range transport.Packetize(kind, id, u.Data, u, cfg.MTU) {
			wireBytes[kind] += f.WireSize()
			pacer.Enqueue(f)
		}
	})
	if err != nil {
		return nil, err
	}
	// Capture k runs at exactly k·period, the ticks accumulating through
	// s.After, so the camera can render the next one ahead.
	period := time.Duration(float64(time.Second) / cfg.FPS)
	cl.cam = startCamera(src, cl.scale, period, cfg.Duration)
	defer cl.cam.stop()

	res := &Results{Cfg: cfg, reg: reg}

	// Periodic processes: every runs fn at first, then every period after.
	every := func(first, period time.Duration, fn func()) {
		var tick func()
		tick = func() {
			fn()
			s.After(period, tick)
		}
		s.At(first, tick)
	}
	every(0, period, cl.Capture)
	every(cfg.UpdateEvery, cfg.UpdateEvery, func() {
		pacer.SetRateKbps(cl.TargetKbps() * pacingFactor)
		cl.Schedule()
	})
	// The reverse path is one propagation delay.
	every(100*time.Millisecond, 100*time.Millisecond, func() {
		acks, lost := fbc.Report()
		key := sv.takeKeyRequest()
		s.After(cfg.PropDelay, func() { cl.onLinkReport(acks, lost, key) })
	})
	every(cfg.EpochLen, cfg.EpochLen, func() {
		if fb, ok := sv.Epoch(); ok {
			s.After(cfg.PropDelay, func() { cl.Feedback(fb) })
		}
	})

	// The metric loop observes the viewer-facing inference latency into
	// core_infer_latency_ms, which backs the run summary's p50/p99 for every
	// scheme, the WebRTC baseline included.
	hInfer := reg.Histogram("core_infer_latency_ms", telemetry.ExpBuckets(0.25, 1.5, 24))
	var inferLatSum time.Duration
	var inferLatN int
	every(cfg.MetricEvery, cfg.MetricEvery, func() {
		now := s.Now()
		out, capAt, lat, ok := sv.Output()
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
		res.Bandwidth = append(res.Bandwidth, SeriesPoint{now, cl.TargetKbps()})
		res.Video = append(res.Video, SeriesPoint{now, cl.videoKbps()})
		res.Patch = append(res.Patch, SeriesPoint{now, cl.currentPatchKbps()})
		res.LinkRate = append(res.LinkRate, SeriesPoint{now, link.RateAt(now)})
	})

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
	res.PatchesSent = patches
	res.PatchesReceived = sv.patchesReceived
	res.LinkStats = link.Stats()
	res.BytesVideo = wireBytes[transport.KindVideo]
	res.BytesPatch = wireBytes[transport.KindPatch]
	res.inlineCaptures = cl.cam.misses
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

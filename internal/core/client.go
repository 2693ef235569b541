package core

import (
	"math/rand"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/gcc"
	"livenas/internal/metrics"
	"livenas/internal/sim"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// videoFrameMeta rides on each video frame's first fragment.
type videoFrameMeta struct {
	Enc       *codec.EncodedFrame
	CaptureAt time.Duration
}

// patchMeta rides on each patch's first fragment (§5.2: "we include its
// timestamp and its location within the corresponding frame").
type patchMeta struct {
	FrameID   int
	CaptureAt time.Duration
	X, Y      int // top-left of the patch in native (HR) coordinates
}

// serverMsg is the media server's reverse-path message to the client:
// transport feedback plus LiveNAS quality feedback (§6.1).
type serverMsg struct {
	acks []gcc.Ack
	lost int

	// Epoch feedback (valid when hasEpoch).
	hasEpoch      bool
	qdnnPrev      float64 // gain of DNN_{t-1} on recent patches, dB
	qdnnCur       float64 // gain of DNN_t on recent patches, dB
	epochPatchK   float64 // patch kbps received during that epoch
	trainingState trainerState

	needKeyFrame bool
}

// GradPoint records one scheduler update (the Figure 5 case-study series).
type GradPoint struct {
	T          time.Duration
	Gradient   float64 // combined gradient, dB per kbps
	PatchKbps  float64
	VideoKbps  float64
	TargetKbps float64
}

// client is the LiveNAS ingest client (Figure 3, left).
type client struct {
	s     *sim.Simulator
	cfg   Config
	scale int
	src   *vidgen.Source
	enc   *codec.Encoder
	ctrl  *gcc.Controller
	pacer *transport.Pacer
	rng   *rand.Rand

	frameID int
	patchID int

	// Scheduler state (§5.1).
	patchKbps  float64
	videoQ     float64 // EWMA of measured encoded quality, dB
	haveFB     bool
	fbPrevQ    float64
	fbCurQ     float64
	fbPatchK   float64
	suspended  bool
	gradSeries []GradPoint

	// Patch pipeline (§5.2).
	patchBudgetBits float64
	patchQueue      []queuedPatch
	lastBudgetAt    time.Duration

	// Functional-codec probe state (Config.FunctionalCodec).
	lastLR *frame.Frame

	// Bookkeeping.
	patchesSent    int
	patchBytesSent int
	videoBytesSent int

	// Telemetry. reg is retained for scheduler_split events (one per
	// scheduler update, alongside gradSeries).
	reg         *telemetry.Registry
	mPatchesOut *telemetry.Counter
	mFramesCap  *telemetry.Counter
}

type queuedPatch struct {
	data []byte
	meta patchMeta
}

func newClient(s *sim.Simulator, cfg Config, src *vidgen.Source, pacer *transport.Pacer) *client {
	c := &client{
		s:     s,
		cfg:   cfg,
		scale: cfg.Scale(),
		src:   src,
		enc: codec.NewEncoder(codec.Config{
			Profile:     cfg.Profile,
			W:           cfg.Ingest.W,
			H:           cfg.Ingest.H,
			KeyInterval: int(cfg.FPS * 4), // 4-second GoP
			Deblock:     cfg.Deblock,
		}),
		ctrl:      gcc.New(gcc.Config{InitKbps: cfg.GCCInitKbps, MinKbps: cfg.MinVideoKbps / 4}),
		pacer:     pacer,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		patchKbps: cfg.InitPatchKbps,
		reg:       cfg.Telemetry,
	}
	c.ctrl.SetTelemetry(c.reg)
	c.mPatchesOut = c.reg.Counter("core_patches_sent")
	c.mFramesCap = c.reg.Counter("core_frames_captured")
	if cfg.Scheme != SchemeLiveNAS {
		c.patchKbps = 0
	}
	return c
}

// videoKbps returns the current video share of the bandwidth estimate.
func (c *client) videoKbps() float64 {
	v := c.ctrl.TargetKbps() - c.currentPatchKbps()
	if v < c.cfg.MinVideoKbps {
		v = c.cfg.MinVideoKbps
	}
	return v
}

// currentPatchKbps applies the vanilla-WebRTC fallback rule (§5.1): if the
// available bandwidth drops below the minimum encoding bitrate, no patches
// are sent.
func (c *client) currentPatchKbps() float64 {
	if c.cfg.Scheme != SchemeLiveNAS {
		return 0
	}
	if c.ctrl.TargetKbps() < c.cfg.MinVideoKbps {
		return 0
	}
	p := c.patchKbps
	if max := c.ctrl.TargetKbps() - c.cfg.MinVideoKbps; p > max {
		p = max
	}
	if p < 0 {
		p = 0
	}
	return p
}

// onCapture runs once per frame interval: capture, downscale, encode,
// packetise, and feed the patch pipeline.
func (c *client) onCapture() {
	now := c.s.Now()
	raw := c.src.FrameAt(now.Seconds())
	lr := raw.Downscale(c.scale)
	c.mFramesCap.Inc()

	targetBits := int(c.videoKbps() * 1000 / c.cfg.FPS)
	ef := c.enc.Encode(lr, targetBits)
	recon := c.enc.Reconstructed()

	// Measured encoded quality feeds the scheduler's Qvideo estimate
	// (EWMA over GoPs, §5.1 "adjusts it to the current video using
	// exponentially weighted averaging").
	q := metrics.PSNR(lr, recon)
	if c.videoQ == 0 {
		c.videoQ = q
	} else {
		c.videoQ = 0.9*c.videoQ + 0.1*q
	}

	c.lastLR = lr
	id := c.frameID
	c.frameID++
	meta := videoFrameMeta{Enc: ef, CaptureAt: now}
	for _, f := range transport.Packetize(transport.KindVideo, id, ef.Data, meta, c.cfg.MTU) {
		c.videoBytesSent += f.WireSize()
		c.pacer.Enqueue(f)
	}

	c.pumpPatches(id, raw, lr, recon, q)
}

// pumpPatches refills the patch transmission buffer when empty (§5.2) and
// releases queued patches according to the patch-bandwidth token budget.
// frameQ is the encoded quality of the whole frame, PSNR(lr, recon).
func (c *client) pumpPatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	now := c.s.Now()
	rate := c.currentPatchKbps()
	// Token refill.
	dt := (now - c.lastBudgetAt).Seconds()
	c.lastBudgetAt = now
	c.patchBudgetBits += rate * 1000 * dt
	if cap := 3 * rate * 1000; c.patchBudgetBits > cap && cap > 0 {
		c.patchBudgetBits = cap // bound the burst to ~3s of patch budget
	}
	if rate <= 0 {
		c.patchBudgetBits = 0
		return
	}
	if len(c.patchQueue) == 0 {
		c.samplePatches(frameID, raw, lr, recon, frameQ)
	}
	for len(c.patchQueue) > 0 {
		p := c.patchQueue[0]
		bits := float64((len(p.data) + transport.HeaderBytes) * 8)
		if c.patchBudgetBits < bits {
			break
		}
		c.patchBudgetBits -= bits
		c.patchQueue = c.patchQueue[1:]
		for _, f := range transport.Packetize(transport.KindPatch, c.patchID, p.data, p.meta, c.cfg.MTU) {
			c.patchBytesSent += f.WireSize()
			c.pacer.Enqueue(f)
		}
		c.patchID++
		c.patchesSent++
		c.mPatchesOut.Inc()
	}
}

// samplePatches implements the patch-selection algorithm of §5.2: random
// draws from the non-overlapping grid, keeping cells whose encoded quality
// is below the whole frame's (harder-to-encode content trains better),
// until ~10 patches are buffered.
func (c *client) samplePatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	const wanted = 10
	ps := c.cfg.PatchSize
	cells := frame.Grid(raw.W, raw.H, ps)
	if len(cells) == 0 {
		return
	}
	// Shuffled pass over the grid.
	order := c.rng.Perm(len(cells))
	now := c.s.Now()
	lps := ps / c.scale
	for _, ci := range order {
		if len(c.patchQueue) >= wanted {
			break
		}
		cell := cells[ci]
		lx, ly := cell.X/c.scale, cell.Y/c.scale
		encQ := metrics.PSNR(lr.Crop(lx, ly, lps, lps), recon.Crop(lx, ly, lps, lps))
		if encQ >= frameQ {
			continue // easy region: discard (§5.2)
		}
		hr := raw.Crop(cell.X, cell.Y, ps, ps)
		data := codec.EncodePatch(hr, codec.PatchQuality)
		c.patchQueue = append(c.patchQueue, queuedPatch{
			data: data,
			meta: patchMeta{FrameID: frameID, CaptureAt: now, X: cell.X, Y: cell.Y},
		})
	}
	// If the quality filter rejected everything (uniformly easy frame),
	// fall back to unfiltered random cells so training never starves.
	for _, ci := range order {
		if len(c.patchQueue) >= wanted/2 {
			break
		}
		cell := cells[ci]
		hr := raw.Crop(cell.X, cell.Y, ps, ps)
		c.patchQueue = append(c.patchQueue, queuedPatch{
			data: codec.EncodePatch(hr, codec.PatchQuality),
			meta: patchMeta{FrameID: frameID, CaptureAt: now, X: cell.X, Y: cell.Y},
		})
	}
}

// gradRef converts the combined quality gradient (dB per kbps) into a step
// multiplier: a gradient of gradRef maps to one full step of StepKbps.
const gradRef = 0.01

// gamma is Equation 1's discount factor on the DNN gain term. It weighs the
// *future* gain stream a training patch keeps delivering (γ >= 1 in the
// paper); one epoch's measured slope understates it by roughly the
// saturation horizon.
const gamma = 15

// pacingFactor releases packets at a multiple of the target bitrate, as
// WebRTC's pacer does (factor 2.5): the pacer smooths frame bursts without
// becoming a standing self-inflicted queue, so queuing delay observed by the
// congestion controller reflects the network, not the sender.
const pacingFactor = 2.5

// onSchedule runs every UpdateEvery: one gradient-ascent update of the
// patch bitrate (Equation 2) and a pacer rate refresh.
func (c *client) onSchedule() {
	b := c.ctrl.TargetKbps()
	c.pacer.SetRateKbps(b * pacingFactor)
	if c.cfg.Scheme != SchemeLiveNAS {
		return
	}
	if b < c.cfg.MinVideoKbps {
		// Vanilla-WebRTC fallback (§5.1).
		c.recordGrad(0)
		return
	}
	if c.suspended {
		// Server detected gain saturation: minimum patch trickle (§6.1).
		c.patchKbps = c.cfg.MinPatchKbps
		c.recordGrad(0)
		return
	}
	if !c.haveFB {
		// No DNN feedback yet: hold the initial rate (§5.1 initial 100 kbps).
		c.recordGrad(0)
		return
	}

	// dQ_DNN/dp: slope between the two most recent DNN quality points,
	// per kbps of patch bandwidth spent in that epoch (§5.1, Figure 4).
	gDNN := 0.0
	if c.fbPatchK > 1 {
		gDNN = (c.fbCurQ - c.fbPrevQ) / c.fbPatchK
	}
	// dQ_video/dp = -dQ_video/dv, from the category's normalized
	// bitrate-quality curve scaled to the observed absolute quality. Above
	// ~40 dB encoding is perceptually transparent and additional video
	// bitrate buys nothing, so the marginal value tapers to zero there —
	// the measured-PSNR analogue of the curve flattening at its top end.
	v := b - c.patchKbps
	if v < c.cfg.MinVideoKbps {
		v = c.cfg.MinVideoKbps
	}
	var gVid float64
	if c.cfg.FunctionalCodec && c.lastLR != nil {
		// §9 extension: probe the codec at two bitrates around the current
		// operating point and measure the local slope directly. A
		// functional codec makes this cheap; we emulate it with two
		// intra-only scratch encodes of the latest captured frame.
		gVid = -c.probeVideoSlope(v)
	} else {
		// Normalized-curve estimate (§5.1), scaled to the observed
		// absolute quality. Above ~40 dB encoding is perceptually
		// transparent and additional video bitrate buys nothing, so the
		// marginal value tapers to zero there.
		nq := NormalizedQuality(c.cfg.Cat, v)
		scaleNQ := 0.0
		if nq > 0 {
			scaleNQ = c.videoQ / nq
		}
		sat := (42 - c.videoQ) / 6
		if sat < 0 {
			sat = 0
		}
		if sat > 1 {
			sat = 1
		}
		gVid = -scaleNQ * NormalizedQualitySlope(c.cfg.Cat, v) * sat
	}

	g := gamma*gDNN + gVid
	delta := c.cfg.StepKbps * g / gradRef
	if delta > 2*c.cfg.StepKbps {
		delta = 2 * c.cfg.StepKbps
	}
	if delta < -2*c.cfg.StepKbps {
		delta = -2 * c.cfg.StepKbps
	}
	c.patchKbps += delta
	if c.patchKbps < c.cfg.MinPatchKbps {
		c.patchKbps = c.cfg.MinPatchKbps
	}
	if max := 0.5 * b; c.patchKbps > max {
		c.patchKbps = max
	}
	c.recordGrad(g)
}

func (c *client) recordGrad(g float64) {
	p := GradPoint{
		T:          c.s.Now(),
		Gradient:   g,
		PatchKbps:  c.currentPatchKbps(),
		VideoKbps:  c.videoKbps(),
		TargetKbps: c.ctrl.TargetKbps(),
	}
	c.gradSeries = append(c.gradSeries, p)
	c.reg.Emit(p.T, "scheduler_split",
		telemetry.Num("gradient_db_per_kbps", p.Gradient),
		telemetry.Num("patch_kbps", p.PatchKbps),
		telemetry.Num("video_kbps", p.VideoKbps),
		telemetry.Num("target_kbps", p.TargetKbps),
	)
}

// probeVideoSlope measures dQvideo/dv (dB per kbps) by encoding the latest
// frame at v*(1-delta) and v*(1+delta) with throwaway intra encoders.
func (c *client) probeVideoSlope(v float64) float64 {
	const delta = 0.25
	lo, hi := v*(1-delta), v*(1+delta)
	q := func(kbps float64) float64 {
		enc := codec.NewEncoder(codec.Config{Profile: c.cfg.Profile, W: c.lastLR.W, H: c.lastLR.H})
		enc.Encode(c.lastLR, int(kbps*1000/c.cfg.FPS))
		return metrics.PSNR(c.lastLR, enc.Reconstructed())
	}
	dv := hi - lo
	if dv <= 0 {
		return 0
	}
	slope := (q(hi) - q(lo)) / dv
	if slope < 0 {
		slope = 0 // measurement noise; quality never truly decreases in rate
	}
	return slope
}

// onServerMsg handles the reverse-path message: GCC feedback, key-frame
// requests, and LiveNAS epoch feedback.
func (c *client) onServerMsg(m serverMsg) {
	if len(m.acks) > 0 || m.lost > 0 {
		c.ctrl.OnFeedback(c.s.Now(), m.acks, m.lost)
	}
	if m.needKeyFrame {
		c.enc.ForceKeyFrame()
	}
	if m.hasEpoch {
		c.haveFB = true
		c.fbPrevQ = m.qdnnPrev
		c.fbCurQ = m.qdnnCur
		c.fbPatchK = m.epochPatchK
		wasSuspended := c.suspended
		c.suspended = m.trainingState == stateSuspended
		if wasSuspended && !c.suspended {
			// Scene change detected: re-bootstrap the feedback process
			// (§6.1 "it sets the patch bitrate to initial value").
			c.patchKbps = c.cfg.InitPatchKbps
			c.haveFB = false
		}
	}
}

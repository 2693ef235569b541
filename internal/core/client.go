package core

import (
	"math"
	"math/rand"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/gcc"
	"livenas/internal/metrics"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// Feedback is the media server's quality report to the client at the end
// of each training epoch (§6.1): the gains of DNN_{t-1} and DNN_t over
// bilinear on the recent patches, the patch bitrate that bought the step
// between them, and whether Algorithm 1 has suspended training. Server.Epoch
// returns it; RunContext delivers it one propagation delay later, and the
// socket processes carry it as a MsgStats.
type Feedback struct {
	PrevGainDB float64 // DNN_{t-1}'s gain, dB
	GainDB     float64 // DNN_t's gain, dB
	PatchKbps  float64 // patch kbps the server received during the epoch
	Suspended  bool    // training suspended: send the minimum patch trickle
	Epoch      int     // the epoch's index, from 1
	Samples    int     // the trainer's sample count after the epoch
}

// Unit is one whole unit the client hands its link: an encoded video frame
// or a training patch cropped at native (X, Y) from frame FrameID (§5.2:
// "we include its timestamp and its location within the corresponding
// frame").
type Unit struct {
	FrameID   int
	Patch     bool
	Data      []byte        // the encoded frame, or the codec.EncodePatch payload
	Key       bool          // video: a key frame
	QP        int           // video
	CaptureAt time.Duration // video
	X, Y      int           // patch
}

// GradPoint records one scheduler update (the Figure 5 case-study series).
type GradPoint struct {
	T          time.Duration
	Gradient   float64 // combined gradient, dB per kbps
	PatchKbps  float64
	VideoKbps  float64
	TargetKbps float64
}

// Client is the LiveNAS ingest client (Figure 3, left): it captures and
// encodes the stream, splits the uplink between video and training patches
// with the quality-optimizing scheduler (§5.1) and samples quality-filtered
// patches (§5.2). Like Server it reads whatever clock now reads and hands
// whole units to the driver's send function, so the simulated session
// (RunContext) and the socket client (cmd/livenas-client) drive the same
// code; each driver owns its link. A Client is not safe for concurrent use:
// one goroutine drives it.
type Client struct {
	now   func() time.Duration
	send  func(Unit)
	cfg   Config
	scale int
	src   *vidgen.Source
	enc   *codec.Encoder
	ctrl  *gcc.Controller
	rng   *rand.Rand

	frameID int

	// Scheduler state (§5.1).
	patchKbps  float64
	videoQ     float64  // EWMA of measured encoded quality, dB
	haveFB     bool     // fb steers the next update
	fb         Feedback // the latest epoch report
	gradSeries []GradPoint

	// Patch pipeline (§5.2).
	patchBudgetBits float64
	patchQueue      []Unit
	lastBudgetAt    time.Duration

	// Functional-codec probe state (Config.FunctionalCodec).
	lastLR *frame.Frame

	// reg receives scheduler_split events (one per scheduler update,
	// alongside gradSeries).
	reg *telemetry.Registry
}

// NewClient builds the ingest client of one session from cfg, which it
// validates and defaults as NewServer does. src is the camera it captures
// from, now the session clock, and send receives every encoded frame and
// every released patch, in the order they leave the client.
func NewClient(cfg Config, src *vidgen.Source, now func() time.Duration, send func(Unit)) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Client{
		now:   now,
		send:  send,
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
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		patchKbps: cfg.InitPatchKbps,
		reg:       cfg.Telemetry,
	}
	if cfg.Scheme != SchemeLiveNAS {
		c.patchKbps = 0
	}
	return c, nil
}

// TargetKbps is the uplink budget the scheduler splits: the congestion
// controller's current target.
func (c *Client) TargetKbps() float64 { return c.ctrl.TargetKbps() }

// videoKbps returns the current video share of the bandwidth estimate.
func (c *Client) videoKbps() float64 {
	v := c.ctrl.TargetKbps() - c.currentPatchKbps()
	if v < c.cfg.MinVideoKbps {
		v = c.cfg.MinVideoKbps
	}
	return v
}

// currentPatchKbps applies the vanilla-WebRTC fallback rule (§5.1): if the
// available bandwidth drops below the minimum encoding bitrate, no patches
// are sent.
func (c *Client) currentPatchKbps() float64 {
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

// Capture runs once per frame interval: capture, downscale, encode, send
// the frame, and feed the patch pipeline.
func (c *Client) Capture() {
	now := c.now()
	raw := c.src.FrameAt(now.Seconds())
	lr := raw.Downscale(c.scale)

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
	c.send(Unit{FrameID: id, Data: ef.Data, Key: ef.Key, QP: ef.QP, CaptureAt: now})

	c.pumpPatches(id, raw, lr, recon, q)
}

// pumpPatches refills the patch transmission buffer when empty (§5.2) and
// releases queued patches according to the patch-bandwidth token budget.
// frameQ is the encoded quality of the whole frame, PSNR(lr, recon).
func (c *Client) pumpPatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	now := c.now()
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
		bits := float64((len(p.Data) + transport.HeaderBytes) * 8)
		if c.patchBudgetBits < bits {
			break
		}
		c.patchBudgetBits -= bits
		c.patchQueue = c.patchQueue[1:]
		c.send(p)
	}
}

// samplePatches implements the patch-selection algorithm of §5.2: random
// draws from the non-overlapping grid, keeping cells whose encoded quality
// is below the whole frame's (harder-to-encode content trains better),
// until ~10 patches are buffered.
func (c *Client) samplePatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	const wanted = 10
	ps := c.cfg.PatchSize
	cells := frame.Grid(raw.W, raw.H, ps)
	if len(cells) == 0 {
		return
	}
	// queue crops the patch at native (x, y), encodes it and buffers it.
	queue := func(x, y int) {
		data := codec.EncodePatch(raw.Crop(x, y, ps, ps), codec.PatchQuality)
		c.patchQueue = append(c.patchQueue, Unit{FrameID: frameID, Patch: true, Data: data, X: x, Y: y})
	}
	// Shuffled pass over the grid.
	order := c.rng.Perm(len(cells))
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
		queue(cell.X, cell.Y)
	}
	// If the quality filter rejected everything (uniformly easy frame),
	// fall back to unfiltered random cells so training never starves.
	for _, ci := range order {
		if len(c.patchQueue) >= wanted/2 {
			break
		}
		queue(cells[ci].X, cells[ci].Y)
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

// Schedule runs every UpdateEvery: one gradient-ascent update of the patch
// bitrate (Equation 2). The driver paces its link by TargetKbps.
func (c *Client) Schedule() {
	b := c.ctrl.TargetKbps()
	if c.cfg.Scheme != SchemeLiveNAS {
		return
	}
	if b < c.cfg.MinVideoKbps {
		// Vanilla-WebRTC fallback (§5.1).
		c.recordGrad(0)
		return
	}
	if c.fb.Suspended {
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
	if c.fb.PatchKbps > 1 {
		gDNN = (c.fb.GainDB - c.fb.PrevGainDB) / c.fb.PatchKbps
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

func (c *Client) recordGrad(g float64) {
	p := GradPoint{
		T:          c.now(),
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
func (c *Client) probeVideoSlope(v float64) float64 {
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

// onLinkReport takes the transport half of the server's reverse path,
// which only the simulated link carries: GCC acks and losses, and a
// key-frame request.
func (c *Client) onLinkReport(acks []gcc.Ack, lost int, keyFrame bool) {
	if len(acks) > 0 || lost > 0 {
		c.ctrl.OnFeedback(c.now(), acks, lost)
	}
	if keyFrame {
		c.enc.ForceKeyFrame()
	}
}

// Feedback takes the server's report at the end of an epoch (§6.1). The
// report is outside input on a socket: one with a gain or a patch rate that
// is not finite, or a negative patch rate, is ignored, since every clamp of
// the scheduler compares false against NaN and would keep it for good.
func (c *Client) Feedback(fb Feedback) {
	if !finite(fb.PrevGainDB) || !finite(fb.GainDB) || !finite(fb.PatchKbps) || fb.PatchKbps < 0 {
		return
	}
	wasSuspended := c.fb.Suspended
	c.fb, c.haveFB = fb, true
	if wasSuspended && !fb.Suspended {
		// Scene change detected: re-bootstrap the feedback process
		// (§6.1 "it sets the patch bitrate to initial value").
		c.patchKbps = c.cfg.InitPatchKbps
		c.haveFB = false
	}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

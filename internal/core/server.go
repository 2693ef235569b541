package core

import (
	"sync"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// trainerState is the content-adaptive trainer's FSM state (Algorithm 1).
type trainerState int

const (
	stateTraining trainerState = iota
	stateSuspended
)

func (s trainerState) String() string {
	if s == stateSuspended {
		return "suspended"
	}
	return "training"
}

// Content-adaptive trainer thresholds (Algorithm 1). Values are calibrated
// to this SR model's per-epoch gain scale the same way the paper calibrates
// to NAS's.
const (
	thresSat    = 0.05 // dB: smoothed epoch-over-epoch improvement below this counts toward saturation
	countSat    = 3    // patience before suspending
	thresOnline = 0.30 // dB: lead of DNN_t over DNN_0 below this signals content change
	countOnline = 2    // patience before resuming
	// diffSmooth is the EWMA weight applied to the epoch-over-epoch gain
	// difference before the saturation comparison: SGD noise makes a single
	// epoch's diff swing far more than NAS-scale training, so the raw
	// Algorithm-1 comparison would never see a stable plateau.
	diffSmooth = 0.5
)

// gateSampleEvery thins the int8 quality gate's patch trickle: one of every
// N admitted training patches also runs the f32-vs-int8 PSNR comparison.
// Each probe costs two patch inferences, so sampling keeps the gate's
// overhead well under one frame-equivalent per second at paper patch rates.
const gateSampleEvery = 8

// quantGateDB is the int8 quality gate's threshold: inference falls back to
// f32 while the sampled int8-vs-f32 PSNR gap exceeds it.
const quantGateDB = 0.5

// StateChange records a trainer ON/OFF transition (Figure 16 timeline). The
// server does not keep a timeline of its own: transitions are emitted as
// trainer_state telemetry events and Results.TrainerTimeline reconstructs
// this series from the event trace.
type StateChange struct {
	T     time.Duration
	State string
}

// decodedFrame is a reconstructed stream frame with its capture timestamp.
type decodedFrame struct {
	id        int
	captureAt time.Duration
	lr        *frame.Frame
}

// patchSample retains a received high-quality patch with its low-resolution
// counterpart for quality validation (§6.1 "we use the high-quality training
// patches as a reference at the media server").
type patchSample struct{ hr, lr *frame.Frame }

// Server is the LiveNAS media server (Figure 3, right): it decodes the
// ingest stream, pairs training patches with their decoded frames, trains
// the session's DNN under Algorithm 1 and enhances the latest frame. Its
// input is whole units (a frame, a patch) and its clock is whatever now
// reads, so the simulated session (RunContext) and the socket server
// (cmd/livenas-server) drive the same code; each caller owns its link.
// A Server is not safe for concurrent use: one goroutine drives it.
type Server struct {
	now   func() time.Duration
	cfg   Config
	scale int

	dec *codec.Decoder

	model     *sr.Model // DNN_t (trained online)
	prevModel *sr.Model // DNN_{t-1}
	initModel *sr.Model // DNN_{t=0}: generic benchmark-trained model
	trainer   *sr.Trainer
	proc      *sr.Processor

	decoded      []decodedFrame // ring of recent frames
	latest       *decodedFrame
	recentPatch  []patchSample
	patchBits    int // bits received this epoch
	epochIdx     int
	needKey      bool
	waitKey      bool // decoder lost its reference; discard until key frame
	earlyStopped bool // TrainEarlyStop latch

	state    trainerState
	patience int
	diffEWMA float64 // smoothed qCur - qPrev, dB

	// Bookkeeping.
	gpuTrainBusy    time.Duration
	framesDecoded   int
	framesLost      int
	patchesReceived int
	e2eLatencySum   time.Duration
	e2eLatencyN     int

	// Telemetry. reg is retained for event emission (trainer_state,
	// patch_admit, train_epoch); the counters are lock-free handles
	// registered once in NewServer.
	reg          *telemetry.Registry
	mPatchesRecv *telemetry.Counter
	mEpochs      *telemetry.Counter
}

// genericModelCache memoises the expensive generic pre-training per
// (scale, channels) so every experiment does not redo it.
var genericModelCache sync.Map // key [2]int -> *sr.Model

// genericModel returns (a clone of) the benchmark-dataset-trained model for
// the given scale/width (the DNN_{t=0} of Algorithm 1 and the Generic
// baseline of §8.1).
func genericModel(scale, channels int) *sr.Model {
	key := [2]int{scale, channels}
	if v, ok := genericModelCache.Load(key); ok {
		return v.(*sr.Model).Clone()
	}
	m := sr.NewModel(scale, channels, 1234)
	ds := vidgen.GenericDataset(24, 96, 424242)
	cfg := sr.DefaultTrainConfig()
	sr.PretrainOnDataset(m, ds, 6, 48, cfg, 7)
	genericModelCache.Store(key, m)
	return m.Clone()
}

// pretrainOnSession trains model on a previous session of the same streamer
// (the Pretrained baseline of §8.1 and the warm start of persistent
// learning, §6.1).
func pretrainOnSession(model *sr.Model, cfg Config) {
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.PretrainSeed, cfg.Duration.Seconds())
	tr := sr.NewTrainer(model, cfg.TrainCfg, cfg.PretrainSeed^0x7e7e)
	ps := cfg.PatchSize
	scale := cfg.Scale()
	cells := frame.Grid(cfg.Native.W, cfg.Native.H, ps)
	if len(cells) == 0 {
		return
	}
	n := 0
	for t := 0.5; t < cfg.Duration.Seconds(); t += 2 {
		f := src.FrameAt(t)
		for j := 0; j < 2; j++ {
			cell := cells[n%len(cells)]
			n++
			hr := frame.Patch(f, cell, ps)
			tr.AddSample(hr.Downscale(scale), hr)
		}
		if n >= 120 {
			break
		}
	}
	// Same order of GPU budget as a LiveNAS run of this duration (§8.1
	// "we use the same amount of GPU for training as LiveNAS").
	epochs := int(cfg.Duration/cfg.EpochLen) / 2
	if epochs < 4 {
		epochs = 4
	}
	if epochs > 40 {
		epochs = 40
	}
	for e := 0; e < epochs; e++ {
		tr.Epoch()
	}
}

// NewServer builds the media server of one session from cfg, which it
// validates (a geometry error is returned, not panicked) and defaults; now
// is the session clock that stamps its events and times its one-time
// training window. A server that is built emits the session's first
// trainer_state event.
func NewServer(cfg Config, now func() time.Duration) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	scale := cfg.Scale()
	sv := &Server{
		now:   now,
		cfg:   cfg,
		scale: scale,
		dec: codec.NewDecoder(codec.Config{
			Profile: cfg.Profile,
			W:       cfg.Ingest.W,
			H:       cfg.Ingest.H,
			Deblock: cfg.Deblock,
		}),
		state: stateTraining,
		reg:   cfg.Telemetry,
	}
	sv.mPatchesRecv = sv.reg.Counter("core_patches_received")
	sv.mEpochs = sv.reg.Counter("core_train_epochs")
	sv.initModel = genericModel(scale, cfg.Channels)
	switch cfg.Scheme {
	case SchemeWebRTC:
		// No DNN at all.
	case SchemeGeneric:
		sv.model = sv.initModel.Clone()
	case SchemePretrained:
		sv.model = sv.initModel.Clone()
		pretrainOnSession(sv.model, cfg)
	case SchemeLiveNAS:
		sv.model = sv.initModel.Clone()
		if cfg.Persistent {
			pretrainOnSession(sv.model, cfg)
		}
		tcfg := cfg.TrainCfg
		tcfg.GPUs = cfg.TrainGPUs
		sv.trainer = sr.NewTrainer(sv.model, tcfg, cfg.Seed^0xbeef)
		sv.prevModel = sv.model.Clone()
	}
	if sv.model != nil {
		sv.proc = sr.NewProcessor(sv.model, cfg.InferGPUs, cfg.Device)
		sv.proc.SetTelemetry(sv.reg)
		if cfg.QuantInt8 {
			// Schemes without online training (Generic/Pretrained) have no
			// trainer statistics; EnableQuant then calibrates lazily from
			// the first processed frame.
			sv.proc.EnableQuant(sv.model, quantGateDB)
		}
		if cfg.AnytimeBudget > 0 {
			sv.proc.SetAnytimeBudget(cfg.AnytimeBudget)
		}
	}
	sv.diffEWMA = 1 // optimistic start: never suspend before real signal
	sv.emitTrainerState(sv.trainingActive(), telemetry.Str("reason", "start"))
	return sv, nil
}

// emitTrainerState records a trainer ON/OFF transition as a trainer_state
// event (the Figure 16 timeline; Results.TrainerTimeline reconstructs the
// StateChange series from these).
func (sv *Server) emitTrainerState(st trainerState, extra ...telemetry.Field) {
	fields := append([]telemetry.Field{telemetry.Str("state", st.String())}, extra...)
	sv.reg.Emit(sv.now(), "trainer_state", fields...)
}

// trainingActive reports whether the trainer would run an epoch now, under
// the configured policy.
func (sv *Server) trainingActive() trainerState {
	if sv.cfg.Scheme != SchemeLiveNAS {
		return stateSuspended
	}
	switch sv.cfg.TrainPolicy {
	case TrainContinuous:
		return stateTraining
	case TrainOneTime:
		if sv.now() < sv.cfg.OneTimeWindow {
			return stateTraining
		}
		return stateSuspended
	case TrainEarlyStop:
		if sv.earlyStopped {
			return stateSuspended
		}
		return stateTraining
	default:
		return sv.state
	}
}

// onFrameLost handles a video frame the link lost: the decoder's reference
// is gone, so the server waits for a key frame and asks for one.
func (sv *Server) onFrameLost() {
	sv.framesLost++
	sv.needKey = true
	sv.waitKey = true
}

// Video decodes one whole ingest frame (ef.Seq is its frame id) captured at
// captureAt on the session clock. After a loss or a decode error every
// frame up to the next key frame is discarded.
func (sv *Server) Video(ef *codec.EncodedFrame, captureAt time.Duration) {
	if sv.waitKey && !ef.Key {
		sv.framesLost++
		sv.needKey = true
		return
	}
	if ef.Key {
		sv.waitKey = false
		sv.dec.Reset()
	}
	lr, err := sv.dec.Decode(ef)
	if err != nil {
		sv.onFrameLost()
		return
	}
	sv.framesDecoded++
	sv.decoded = append(sv.decoded, decodedFrame{id: ef.Seq, captureAt: captureAt, lr: lr})
	// Keep ~3 seconds of decoded frames for patch pairing, and at least the
	// latest one whatever the frame rate.
	limit := max(1, int(3*sv.cfg.FPS))
	if len(sv.decoded) > limit {
		sv.decoded = sv.decoded[len(sv.decoded)-limit:]
	}
	sv.latest = &sv.decoded[len(sv.decoded)-1]
	sv.e2eLatencySum += sv.now() - captureAt
	sv.e2eLatencyN++
}

// Patch admits one whole training patch: data is its codec.EncodePatch
// payload, cropped at native (x, y) from frame frameID. The declared size
// is checked before anything is decoded: a patch that is not a square of a
// multiple of the scale, at a scale-aligned position inside the native
// frame, is dropped, so a hostile header or geometry costs the sender its
// patch and this server nothing.
func (sv *Server) Patch(frameID, x, y int, data []byte) {
	side, h, err := codec.PatchDims(data)
	if err != nil || side != h || side%sv.scale != 0 || x%sv.scale != 0 || y%sv.scale != 0 ||
		x < 0 || y < 0 || x > sv.cfg.Native.W-side || y > sv.cfg.Native.H-side {
		return
	}
	hr, err := codec.DecodePatch(data)
	if err != nil {
		return
	}
	sv.patchesReceived++
	sv.mPatchesRecv.Inc()
	sv.patchBits += (len(data) + transport.HeaderBytes) * 8
	// Find the exact decoded frame the patch was cropped from (§5.2: the
	// timestamp/frame id lets the server "find the low resolution
	// counterpart from the encoded video stream"). A temporally misaligned
	// pair would train the DNN on moving content offsets, so patches whose
	// frame has already left the ring (or was lost) are discarded.
	var best *decodedFrame
	for i := range sv.decoded {
		if sv.decoded[i].id == frameID {
			best = &sv.decoded[i]
			break
		}
	}
	if best == nil {
		return
	}
	lps := side / sv.scale
	lr := best.lr.Crop(x/sv.scale, y/sv.scale, lps, lps)
	if sv.trainer != nil {
		sv.trainer.AddSample(lr, hr)
		// The same ground-truth pair doubles as the int8 quality gate's
		// sampled trickle: every gateSampleEvery-th admitted patch compares
		// int8 vs f32 PSNR online (sr_quant_psnr_gap) and drives the
		// per-stream fallback decision.
		if sv.cfg.QuantInt8 && sv.patchesReceived%gateSampleEvery == 0 {
			sv.proc.ObserveGatePatch(lr, hr)
		}
		sv.reg.Emit(sv.now(), "patch_admit",
			telemetry.Num("frame_id", float64(frameID)),
			telemetry.Num("x", float64(x)),
			telemetry.Num("y", float64(y)),
			telemetry.Num("bytes", float64(len(data))),
		)
	}
	sv.recentPatch = append(sv.recentPatch, patchSample{hr: hr, lr: lr})
	if len(sv.recentPatch) > 8 {
		sv.recentPatch = sv.recentPatch[len(sv.recentPatch)-8:]
	}
}

// takeKeyRequest reports, and clears, the server's wish for a key frame,
// which the simulated link's 100 ms transport report carries.
func (sv *Server) takeKeyRequest() bool {
	key := sv.needKey
	sv.needKey = false
	return key
}

// modelGain measures a model's SR gain over bilinear (dB) on the recent
// high-quality patches — the server-side quality signal of §6.1.
func (sv *Server) modelGain(m *sr.Model) float64 {
	if len(sv.recentPatch) == 0 {
		return 0
	}
	var g float64
	for _, p := range sv.recentPatch {
		up := p.lr.ResizeBilinear(p.hr.W, p.hr.H)
		bil := metrics.PSNR(p.hr, up)
		srq := metrics.PSNR(p.hr, m.SuperResolve(p.lr))
		g += srq - bil
	}
	return g / float64(len(sv.recentPatch))
}

// Epoch runs one training-epoch boundary: one epoch of online training
// when active, the Algorithm 1 state machine, and the quality feedback for
// the client. ok is false for schemes that do not train online; they have
// no epochs and send no feedback.
func (sv *Server) Epoch() (fb Feedback, ok bool) {
	if sv.cfg.Scheme != SchemeLiveNAS || sv.trainer == nil {
		return Feedback{}, false
	}
	sv.epochIdx++
	active := sv.trainingActive()

	var qPrev, qCur float64
	if active == stateTraining {
		sv.prevModel.CopyWeightsFrom(sv.model)
		var loss float64
		samples := sv.trainer.SampleCount()
		if samples > 0 {
			loss = sv.trainer.Epoch()
			sv.proc.Sync(sv.model)
		}
		// The training GPU is held for the full epoch while active (the
		// paper sizes 50 iterations to fill the 5-second epoch).
		sv.gpuTrainBusy += sv.cfg.EpochLen
		qPrev = sv.modelGain(sv.prevModel)
		qCur = sv.modelGain(sv.model)

		// Algorithm 1, Training state: detect gain saturation on the
		// smoothed epoch-over-epoch improvement.
		if len(sv.recentPatch) > 0 {
			sv.diffEWMA = float64((1-diffSmooth)*sv.diffEWMA) + float64(diffSmooth*(qCur-qPrev))
		}
		sv.mEpochs.Inc()
		sv.reg.Emit(sv.now(), "train_epoch",
			telemetry.Str("channel", sv.cfg.ChannelKey),
			telemetry.Num("epoch", float64(sv.epochIdx)),
			telemetry.Num("samples", float64(samples)),
			telemetry.Num("loss", loss),
			telemetry.Num("gain_prev_db", qPrev),
			telemetry.Num("gain_cur_db", qCur),
			telemetry.Num("diff_ewma_db", sv.diffEWMA),
		)
		if sv.cfg.TrainPolicy == TrainAdaptive || sv.cfg.TrainPolicy == TrainEarlyStop {
			if len(sv.recentPatch) > 0 && sv.diffEWMA < thresSat {
				sv.patience++
				if sv.patience > countSat {
					sv.patience = 0
					sv.state = stateSuspended
					sv.earlyStopped = true
					sv.emitTrainerState(stateSuspended,
						telemetry.Str("reason", "gain_saturated"),
						telemetry.Num("gain_cur_db", qCur),
						telemetry.Num("diff_ewma_db", sv.diffEWMA),
					)
				}
			} else {
				sv.patience = 0
			}
		}
	} else {
		qCur = sv.modelGain(sv.model)
		qPrev = qCur
		// Algorithm 1, Suspended state: validate against DNN_{t=0} on the
		// latest patches; resume when the online model no longer leads.
		if sv.cfg.TrainPolicy == TrainAdaptive && len(sv.recentPatch) > 0 {
			qInit := sv.modelGain(sv.initModel)
			if qCur-qInit < thresOnline {
				sv.patience++
				if sv.patience > countOnline {
					sv.patience = 0
					sv.state = stateTraining
					sv.diffEWMA = 1 // re-bootstrap: don't instantly re-suspend
					sv.emitTrainerState(stateTraining,
						telemetry.Str("reason", "content_change"),
						telemetry.Num("gain_cur_db", qCur),
						telemetry.Num("gain_init_db", qInit),
					)
				}
			} else {
				sv.patience = 0
			}
		}
	}

	epochPatchK := float64(sv.patchBits) / 1000 / sv.cfg.EpochLen.Seconds()
	sv.patchBits = 0
	return Feedback{
		PrevGainDB: qPrev,
		GainDB:     qCur,
		PatchKbps:  epochPatchK,
		Suspended:  sv.trainingActive() == stateSuspended,
		Epoch:      sv.epochIdx,
		Samples:    sv.trainer.SampleCount(),
	}, true
}

// Output produces the frame a viewer-facing transcoder would consume right
// now: the latest decoded frame upscaled to the target resolution by the
// scheme's upsampler. It returns the frame, its capture time, and the
// simulated inference latency; ok is false before the first decoded frame.
func (sv *Server) Output() (out *frame.Frame, captureAt, latency time.Duration, ok bool) {
	if sv.latest == nil {
		return nil, 0, 0, false
	}
	lr := sv.latest.lr
	if sv.proc == nil {
		up := lr.ResizeBilinear(lr.W*sv.scale, lr.H*sv.scale)
		lat := sv.cfg.Device.InferenceTime(lr.W, lr.H, 1, 1)
		return up, sv.latest.captureAt, lat, true
	}
	out, lat := sv.proc.Process(lr)
	return out, sv.latest.captureAt, lat, true
}

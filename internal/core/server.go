package core

import (
	"sync"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/netem"
	"livenas/internal/sim"
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
type patchSample struct {
	hr, lr     *frame.Frame
	receivedAt time.Duration
}

// server is the LiveNAS media server (Figure 3, right).
type server struct {
	s     *sim.Simulator
	cfg   Config
	scale int

	dec   *codec.Decoder
	reasm *transport.Reassembler
	fbc   *transport.FeedbackCollector
	// notify delivers a message to the client after the reverse-path delay.
	notify func(serverMsg)

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
	// patch_admit, train_epoch); the handles are lock-free counters/gauges
	// registered once in newServer.
	reg            *telemetry.Registry
	mFramesDec     *telemetry.Counter
	mFramesLost    *telemetry.Counter
	mPatchesRecv   *telemetry.Counter
	mPatchesAdmit  *telemetry.Counter
	mEpochs        *telemetry.Counter
	mArenaHits     *telemetry.Gauge
	mArenaMisses   *telemetry.Gauge
	mTrainGainCur  *telemetry.Gauge
	mTrainDiffEWMA *telemetry.Gauge
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

func newServer(s *sim.Simulator, cfg Config, notify func(serverMsg)) *server {
	scale := cfg.Scale()
	sv := &server{
		s:     s,
		cfg:   cfg,
		scale: scale,
		dec: codec.NewDecoder(codec.Config{
			Profile: cfg.Profile,
			W:       cfg.Ingest.W,
			H:       cfg.Ingest.H,
			Deblock: cfg.Deblock,
		}),
		reasm:  transport.NewReassembler(),
		fbc:    transport.NewFeedbackCollector(100 * time.Millisecond),
		notify: notify,
		state:  stateTraining,
		reg:    cfg.Telemetry,
	}
	sv.reasm.SetTelemetry(sv.reg)
	sv.mFramesDec = sv.reg.Counter("core_frames_decoded")
	sv.mFramesLost = sv.reg.Counter("core_frames_lost")
	sv.mPatchesRecv = sv.reg.Counter("core_patches_received")
	sv.mPatchesAdmit = sv.reg.Counter("core_patches_admitted")
	sv.mEpochs = sv.reg.Counter("core_train_epochs")
	sv.mArenaHits = sv.reg.Gauge("nn_arena_hits")
	sv.mArenaMisses = sv.reg.Gauge("nn_arena_misses")
	sv.mTrainGainCur = sv.reg.Gauge("core_train_gain_db")
	sv.mTrainDiffEWMA = sv.reg.Gauge("core_train_diff_ewma_db")
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
		sv.trainer.SetTelemetry(sv.reg)
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
	sv.reasm.OnComplete = sv.onUnit
	sv.reasm.OnLoss = sv.onUnitLoss
	return sv
}

// emitTrainerState records a trainer ON/OFF transition as a trainer_state
// event (the Figure 16 timeline; Results.TrainerTimeline reconstructs the
// StateChange series from these).
func (sv *server) emitTrainerState(st trainerState, extra ...telemetry.Field) {
	fields := append([]telemetry.Field{telemetry.Str("state", st.String())}, extra...)
	sv.reg.Emit(sv.s.Now(), "trainer_state", fields...)
}

// trainingActive reports whether the trainer would run an epoch now, under
// the configured policy.
func (sv *server) trainingActive() trainerState {
	if sv.cfg.Scheme != SchemeLiveNAS {
		return stateSuspended
	}
	switch sv.cfg.TrainPolicy {
	case TrainContinuous:
		return stateTraining
	case TrainOneTime:
		if sv.s.Now() < sv.cfg.OneTimeWindow {
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

// onWirePacket receives a packet from the bottleneck link.
func (sv *server) onWirePacket(p netem.Packet) {
	f := p.Payload.(transport.Fragment)
	sv.fbc.OnPacket(p.Seq, p.Size, p.SentAt, sv.s.Now())
	sv.reasm.Add(f, sv.s.Now())
}

// onUnitLoss handles an abandoned (packet-lossy) unit.
func (sv *server) onUnitLoss(k transport.Kind, id int) {
	if k == transport.KindVideo {
		sv.framesLost++
		sv.mFramesLost.Inc()
		sv.needKey = true
		sv.waitKey = true
	}
	// A lost patch is simply a lost training sample.
}

// onUnit handles a fully reassembled video frame or patch.
func (sv *server) onUnit(a transport.Assembled) {
	switch a.Kind {
	case transport.KindVideo:
		sv.onVideoFrame(a)
	case transport.KindPatch:
		sv.onPatch(a)
	}
}

func (sv *server) onVideoFrame(a transport.Assembled) {
	meta := a.Meta.(videoFrameMeta)
	if sv.waitKey && !meta.Enc.Key {
		sv.framesLost++
		sv.mFramesLost.Inc()
		sv.needKey = true
		return
	}
	if meta.Enc.Key {
		sv.waitKey = false
		sv.dec.Reset()
	}
	lr, err := sv.dec.Decode(&codec.EncodedFrame{Data: a.Data, Key: meta.Enc.Key, QP: meta.Enc.QP, Seq: a.ID})
	if err != nil {
		sv.framesLost++
		sv.mFramesLost.Inc()
		sv.needKey = true
		sv.waitKey = true
		return
	}
	sv.framesDecoded++
	sv.mFramesDec.Inc()
	df := decodedFrame{id: a.ID, captureAt: meta.CaptureAt, lr: lr}
	sv.decoded = append(sv.decoded, df)
	// Keep ~3 seconds of decoded frames for patch pairing.
	limit := int(3 * sv.cfg.FPS)
	if len(sv.decoded) > limit {
		sv.decoded = sv.decoded[len(sv.decoded)-limit:]
	}
	sv.latest = &sv.decoded[len(sv.decoded)-1]
	sv.e2eLatencySum += sv.s.Now() - meta.CaptureAt
	sv.e2eLatencyN++
}

func (sv *server) onPatch(a transport.Assembled) {
	meta := a.Meta.(patchMeta)
	hr, err := codec.DecodePatch(a.Data)
	if err != nil {
		return
	}
	sv.patchesReceived++
	sv.mPatchesRecv.Inc()
	sv.patchBits += (len(a.Data) + transport.HeaderBytes) * 8
	// Find the exact decoded frame the patch was cropped from (§5.2: the
	// timestamp/frame id lets the server "find the low resolution
	// counterpart from the encoded video stream"). A temporally misaligned
	// pair would train the DNN on moving content offsets, so patches whose
	// frame has already left the ring (or was lost) are discarded.
	var best *decodedFrame
	for i := range sv.decoded {
		if sv.decoded[i].id == meta.FrameID {
			best = &sv.decoded[i]
			break
		}
	}
	if best == nil {
		return
	}
	lps := sv.cfg.PatchSize / sv.scale
	lr := best.lr.Crop(meta.X/sv.scale, meta.Y/sv.scale, lps, lps)
	if sv.trainer != nil {
		sv.trainer.AddSample(lr, hr)
		sv.mPatchesAdmit.Inc()
		// The same ground-truth pair doubles as the int8 quality gate's
		// sampled trickle: every gateSampleEvery-th admitted patch compares
		// int8 vs f32 PSNR online (sr_quant_psnr_gap) and drives the
		// per-stream fallback decision.
		if sv.cfg.QuantInt8 && sv.patchesReceived%gateSampleEvery == 0 {
			sv.proc.ObserveGatePatch(lr, hr)
		}
		sv.reg.Emit(sv.s.Now(), "patch_admit",
			telemetry.Num("frame_id", float64(meta.FrameID)),
			telemetry.Num("x", float64(meta.X)),
			telemetry.Num("y", float64(meta.Y)),
			telemetry.Num("bytes", float64(len(a.Data))),
		)
	}
	sv.recentPatch = append(sv.recentPatch, patchSample{hr: hr, lr: lr, receivedAt: sv.s.Now()})
	if len(sv.recentPatch) > 8 {
		sv.recentPatch = sv.recentPatch[len(sv.recentPatch)-8:]
	}
}

// onFeedbackTick sends transport feedback (acks + loss) every 100 ms.
func (sv *server) onFeedbackTick() {
	acks, lost := sv.fbc.Report()
	msg := serverMsg{acks: acks, lost: lost, needKeyFrame: sv.needKey}
	sv.needKey = false
	sv.notify(msg)
}

// modelGain measures a model's SR gain over bilinear (dB) on the recent
// high-quality patches — the server-side quality signal of §6.1.
func (sv *server) modelGain(m *sr.Model) float64 {
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

// onEpochTick runs at every training-epoch boundary: one epoch of online
// training when active, the Algorithm 1 state machine, and quality feedback
// to the client.
func (sv *server) onEpochTick() {
	if sv.cfg.Scheme != SchemeLiveNAS || sv.trainer == nil {
		return
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
			sv.diffEWMA = (1-diffSmooth)*sv.diffEWMA + diffSmooth*(qCur-qPrev)
		}
		sv.mEpochs.Inc()
		sv.mTrainGainCur.Set(qCur)
		sv.mTrainDiffEWMA.Set(sv.diffEWMA)
		hits, misses := sv.model.ArenaStats()
		ph, pm := sv.proc.ArenaStats()
		sv.mArenaHits.Set(float64(hits + ph))
		sv.mArenaMisses.Set(float64(misses + pm))
		sv.reg.Emit(sv.s.Now(), "train_epoch",
			telemetry.Num("epoch", float64(sv.epochIdx)),
			telemetry.Num("samples", float64(samples)),
			telemetry.Num("loss", loss),
			telemetry.Num("gain_prev_db", qPrev),
			telemetry.Num("gain_cur_db", qCur),
			telemetry.Num("diff_ewma_db", sv.diffEWMA),
			telemetry.Num("arena_hits", float64(hits+ph)),
			telemetry.Num("arena_misses", float64(misses+pm)),
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
	sv.notify(serverMsg{
		hasEpoch:      true,
		qdnnPrev:      qPrev,
		qdnnCur:       qCur,
		epochPatchK:   epochPatchK,
		trainingState: sv.trainingActive(),
	})
}

// output produces the frame a viewer-facing transcoder would consume right
// now: the latest decoded frame upscaled to the target resolution by the
// scheme's upsampler. It returns the frame, its capture time, and the
// simulated inference latency.
func (sv *server) output() (*frame.Frame, time.Duration, time.Duration, bool) {
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

package main

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"time"

	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/frame"
	"livenas/internal/gcc"
	"livenas/internal/metrics"
	"livenas/internal/netem"
	"livenas/internal/sim"
	"livenas/internal/sr"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// core's client and server are unexported, so ingest_sweep's traced run is a
// staged replay of the two LiveNAS sessions: the same calls into the same
// layers, at the rates the untraced run recorded (video and patch bitrates
// from Results.Video / Results.Patch, training epochs from its telemetry),
// composed by the benchmark on its own simulator. What the replay does not
// reproduce — core's scheduler, its telemetry, GC pressure of the real
// object graph — is core.residual_share.

var (
	opFrameAt     = defOp("vidgen", "frame_at")
	opDownscale   = defOp("frame", "downscale")
	opResize      = defOp("frame", "resize_bilinear")
	opEncode      = defOp("codec", "encode")
	opDecode      = defOp("codec", "decode")
	opPatchEncode = defOp("codec", "patch_encode")
	opPatchDec    = defOp("codec", "patch_decode")
	opPSNR        = defOp("metrics", "psnr")
	opPacketize   = defOp("transport", "packetize")
	opLink        = defOp("transport", "link") // pacer + netem + reassembler + feedback + sim, per frame interval
	opGCC         = defOp("gcc", "on_feedback")
	opInfer       = defOp("sr", "infer")
	opInferPatch  = defOp("sr", "infer_patch")
	opEpoch       = defOp("sr", "train_epoch")
	opSyncIngest  = defOp("sr", "sync_ingest")
	opAddSample   = defOp("sr", "add_sample")
)

type replayVideoMeta struct {
	key       bool
	qp        int
	captureAt time.Duration
}

type replayPatchMeta struct {
	frameID, x, y int
}

type replayPatch struct {
	data []byte
	meta replayPatchMeta
}

type replayDecoded struct {
	id        int
	captureAt time.Duration
	lr        *frame.Frame
}

type replayPair struct{ lr, hr *frame.Frame }

// replay is the staged session: client and server state of core, without
// the scheduler.
type replay struct {
	cfg   core.Config
	res   *core.Results
	tk    *Track
	s     *sim.Simulator
	scale int

	src   *vidgen.Source
	enc   *codec.Encoder
	dec   *codec.Decoder
	ctrl  *gcc.Controller
	pacer *transport.Pacer
	link  *netem.Link
	reasm *transport.Reassembler
	fbc   *transport.FeedbackCollector
	rng   *rand.Rand

	model, prev *sr.Model
	trainer     *sr.Trainer
	proc        *sr.Processor

	frameID, patchID, wireSeq int
	patchQueue                []replayPatch
	patchBudgetBits           float64
	lastBudgetAt              time.Duration

	decoded  []replayDecoded
	recent   []replayPair
	needKey  bool
	waitKey  bool
	epochs   int
	maxEpoch int

	replayCounts
}

// replayCounts is what a replay counts beside its spans.
type replayCounts struct {
	events, frames, fragments, encodedBytes int
	packets, drops                          int // netem.Link: sent into it, dropped by it
}

func (c *replayCounts) add(o replayCounts) {
	c.events += o.events
	c.frames += o.frames
	c.fragments += o.fragments
	c.encodedBytes += o.encodedBytes
	c.packets += o.packets
	c.drops += o.drops
}

// seriesAt returns the latest sample of a Results series at or before t, or
// def before the first sample.
func seriesAt(ps []core.SeriesPoint, t time.Duration, def float64) float64 {
	v := def
	for _, p := range ps {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

func newReplay(cfg core.Config, res *core.Results, tk *Track) *replay {
	cfg = cfg.Defaulted()
	r := &replay{cfg: cfg, res: res, tk: tk, s: sim.New(), scale: cfg.Scale()}
	r.src = vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)
	cc := codec.Config{Profile: cfg.Profile, W: cfg.Ingest.W, H: cfg.Ingest.H, Deblock: cfg.Deblock}
	r.dec = codec.NewDecoder(cc)
	cc.KeyInterval = int(cfg.FPS * 4)
	r.enc = codec.NewEncoder(cc)
	r.ctrl = gcc.New(gcc.Config{InitKbps: cfg.GCCInitKbps, MinKbps: cfg.MinVideoKbps / 4})
	r.rng = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	r.reasm = transport.NewReassembler()
	r.reasm.OnComplete = r.onUnit
	r.reasm.OnLoss = func(k transport.Kind, _ int) {
		if k == transport.KindVideo {
			r.needKey, r.waitKey = true, true
		}
	}
	r.fbc = transport.NewFeedbackCollector(100 * time.Millisecond)
	r.link = netem.NewLink(r.s, cfg.Trace, cfg.PropDelay, cfg.QueueCap, func(p netem.Packet) {
		r.fbc.OnPacket(p.Seq, p.Size, p.SentAt, r.s.Now())
		r.reasm.Add(p.Payload.(transport.Fragment), r.s.Now())
	})
	if cfg.LossRate > 0 {
		r.link.SetLossRate(cfg.LossRate, cfg.Seed^0x10c5)
	}
	r.pacer = transport.NewPacer(r.s, cfg.GCCInitKbps, func(f transport.Fragment) {
		r.link.Send(netem.Packet{Seq: r.wireSeq, Size: f.WireSize(), Payload: f})
		r.wireSeq++
	})
	// An untrained model stands in for core's private generic one: the
	// kernels run over the same shapes whatever the weights.
	r.model = sr.NewModel(r.scale, cfg.Channels, 1234)
	r.prev = r.model.Clone()
	r.trainer = sr.NewTrainer(r.model, cfg.TrainCfg, cfg.Seed^0xbeef)
	r.proc = sr.NewProcessor(r.model, cfg.InferGPUs, cfg.Device)
	if reg := res.Telemetry(); reg != nil {
		r.maxEpoch = int(reg.Snapshot().Counters["core_train_epochs"])
	}
	return r
}

// capture is client.onCapture: render, downscale, encode at the recorded
// video bitrate, measure, packetise, and feed the patch pipeline.
func (r *replay) capture() {
	now := r.s.Now()
	tk := r.tk
	tk.Begin(opFrameAt)
	raw := r.src.FrameAt(now.Seconds())
	tk.End()
	tk.Begin(opDownscale)
	lr := raw.Downscale(r.scale)
	tk.End()

	kbps := seriesAt(r.res.Video, now, max(r.cfg.GCCInitKbps-r.cfg.InitPatchKbps, r.cfg.MinVideoKbps))
	tk.Begin(opEncode)
	ef := r.enc.Encode(lr, int(kbps*1000/r.cfg.FPS))
	recon := r.enc.Reconstructed()
	tk.End()
	tk.Begin(opPSNR)
	frameQ := metrics.PSNR(lr, recon)
	tk.End()

	id := r.frameID
	r.frameID++
	r.frames++
	r.encodedBytes += len(ef.Data)
	tk.Begin(opPacketize)
	frags := transport.Packetize(transport.KindVideo, id, ef.Data, replayVideoMeta{ef.Key, ef.QP, now}, r.cfg.MTU)
	tk.End()
	r.fragments += len(frags)
	for _, f := range frags {
		r.pacer.Enqueue(f)
	}
	r.pumpPatches(id, raw, lr, recon, frameQ)
}

// pumpPatches is client.pumpPatches with the patch rate read from the
// recorded series instead of the scheduler.
func (r *replay) pumpPatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	now := r.s.Now()
	rate := seriesAt(r.res.Patch, now, r.cfg.InitPatchKbps)
	dt := (now - r.lastBudgetAt).Seconds()
	r.lastBudgetAt = now
	r.patchBudgetBits += rate * 1000 * dt
	if limit := 3 * rate * 1000; r.patchBudgetBits > limit && limit > 0 {
		r.patchBudgetBits = limit
	}
	if rate <= 0 {
		r.patchBudgetBits = 0
		return
	}
	if len(r.patchQueue) == 0 {
		r.samplePatches(frameID, raw, lr, recon, frameQ)
	}
	for len(r.patchQueue) > 0 {
		p := r.patchQueue[0]
		bits := float64((len(p.data) + transport.HeaderBytes) * 8)
		if r.patchBudgetBits < bits {
			break
		}
		r.patchBudgetBits -= bits
		r.patchQueue = r.patchQueue[1:]
		r.tk.Begin(opPacketize)
		frags := transport.Packetize(transport.KindPatch, r.patchID, p.data, p.meta, r.cfg.MTU)
		r.tk.End()
		for _, f := range frags {
			r.pacer.Enqueue(f)
		}
		r.patchID++
	}
}

// samplePatches is client.samplePatches (§5.2): shuffled grid cells, kept
// when they encode worse than the whole frame, until ten are queued.
func (r *replay) samplePatches(frameID int, raw, lr, recon *frame.Frame, frameQ float64) {
	const wanted = 10
	ps := r.cfg.PatchSize
	cells := frame.Grid(raw.W, raw.H, ps)
	if len(cells) == 0 {
		return
	}
	order := r.rng.Perm(len(cells))
	lps := ps / r.scale
	add := func(cell frame.GridCell) {
		r.tk.Begin(opPatchEncode)
		data := codec.EncodePatch(raw.Crop(cell.X, cell.Y, ps, ps), codec.PatchQuality)
		r.tk.End()
		r.patchQueue = append(r.patchQueue, replayPatch{data, replayPatchMeta{frameID, cell.X, cell.Y}})
	}
	for _, ci := range order {
		if len(r.patchQueue) >= wanted {
			break
		}
		cell := cells[ci]
		lx, ly := cell.X/r.scale, cell.Y/r.scale
		r.tk.Begin(opPSNR)
		encQ := metrics.PSNR(lr.Crop(lx, ly, lps, lps), recon.Crop(lx, ly, lps, lps))
		r.tk.End()
		if encQ < frameQ {
			add(cell)
		}
	}
	for _, ci := range order {
		if len(r.patchQueue) >= wanted/2 {
			break
		}
		add(cells[ci])
	}
}

// onUnit is server.onVideoFrame / server.onPatch.
func (r *replay) onUnit(a transport.Assembled) {
	tk := r.tk
	switch a.Kind {
	case transport.KindVideo:
		meta := a.Meta.(replayVideoMeta)
		if r.waitKey && !meta.key {
			r.needKey = true
			return
		}
		if meta.key {
			r.waitKey = false
			r.dec.Reset()
		}
		tk.Begin(opDecode)
		lr, err := r.dec.Decode(&codec.EncodedFrame{Data: a.Data, Key: meta.key, QP: meta.qp, Seq: a.ID})
		tk.End()
		if err != nil {
			r.needKey, r.waitKey = true, true
			return
		}
		r.decoded = append(r.decoded, replayDecoded{a.ID, meta.captureAt, lr})
		if limit := int(3 * r.cfg.FPS); len(r.decoded) > limit {
			r.decoded = r.decoded[len(r.decoded)-limit:]
		}
	case transport.KindPatch:
		meta := a.Meta.(replayPatchMeta)
		tk.Begin(opPatchDec)
		hr, err := codec.DecodePatch(a.Data)
		tk.End()
		if err != nil {
			return
		}
		for i := range r.decoded {
			if r.decoded[i].id != meta.frameID {
				continue
			}
			lps := r.cfg.PatchSize / r.scale
			lr := r.decoded[i].lr.Crop(meta.x/r.scale, meta.y/r.scale, lps, lps)
			tk.Begin(opAddSample)
			r.trainer.AddSample(lr, hr)
			tk.End()
			r.recent = append(r.recent, replayPair{lr, hr})
			if len(r.recent) > 8 {
				r.recent = r.recent[len(r.recent)-8:]
			}
			break
		}
	}
}

// modelGain is server.modelGain: SR gain over bilinear on recent patches.
func (r *replay) modelGain(m *sr.Model) {
	for _, p := range r.recent {
		r.tk.Begin(opResize)
		up := p.lr.ResizeBilinear(p.hr.W, p.hr.H)
		r.tk.End()
		r.tk.Begin(opInferPatch)
		out := m.SuperResolve(p.lr)
		r.tk.End()
		r.tk.Begin(opPSNR)
		metrics.PSNR(p.hr, up)
		metrics.PSNR(p.hr, out)
		r.tk.End()
	}
}

// epochTick is server.onEpochTick: train for as many epochs as the
// untraced run did, then validate the current and the previous model.
func (r *replay) epochTick() {
	if r.epochs < r.maxEpoch && r.trainer.SampleCount() > 0 {
		r.epochs++
		r.prev.CopyWeightsFrom(r.model)
		r.tk.Begin(opEpoch)
		r.trainer.Epoch()
		r.tk.End()
		r.tk.Begin(opSyncIngest)
		r.proc.Sync(r.model)
		r.tk.End()
	}
	r.modelGain(r.prev)
	r.modelGain(r.model)
}

// metricTick is the session's quality sampling: enhance the latest decoded
// frame and compare it with the re-rendered ground truth.
func (r *replay) metricTick() {
	if len(r.decoded) == 0 {
		return
	}
	latest := r.decoded[len(r.decoded)-1]
	r.tk.Begin(opInfer)
	out, _ := r.proc.Process(latest.lr)
	r.tk.End()
	r.tk.Begin(opFrameAt)
	gt := r.src.FrameAt(latest.captureAt.Seconds())
	r.tk.End()
	r.tk.Begin(opPSNR)
	metrics.PSNR(gt, out)
	r.tk.End()
}

// every schedules fn at first and then each period, as core.RunContext's
// periodic processes do.
func (r *replay) every(first, period time.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		r.s.After(period, tick)
	}
	r.s.At(first, tick)
}

// run plays the whole session: one transport.link span per frame interval
// holds every event of that interval, with the layer calls as child spans.
func (r *replay) run() {
	cfg := r.cfg
	frameGap := time.Duration(float64(time.Second) / cfg.FPS)
	r.every(0, frameGap, r.capture)
	r.every(cfg.UpdateEvery, cfg.UpdateEvery, func() { r.pacer.SetRateKbps(r.ctrl.TargetKbps() * 2.5) })
	r.every(100*time.Millisecond, 100*time.Millisecond, func() {
		acks, lost := r.fbc.Report()
		needKey := r.needKey
		r.needKey = false
		r.s.After(cfg.PropDelay, func() {
			if len(acks) > 0 || lost > 0 {
				r.tk.Begin(opGCC)
				r.ctrl.OnFeedback(r.s.Now(), acks, lost)
				r.tk.End()
			}
			if needKey {
				r.enc.ForceKeyFrame()
			}
		})
	})
	r.every(cfg.EpochLen, cfg.EpochLen, r.epochTick)
	r.every(cfg.MetricEvery, cfg.MetricEvery, r.metricTick)

	for t := frameGap; ; t += frameGap {
		if t > cfg.Duration {
			t = cfg.Duration
		}
		r.tk.Begin(opLink)
		for {
			at, ok := r.s.Next()
			if !ok || at > t {
				break
			}
			r.s.StepUntil(at, 1)
			r.events++
		}
		r.tk.End()
		if t == cfg.Duration {
			return
		}
	}
}

// ingestTraced is ingest_sweep with --trace 1.
func ingestTraced(e *env, grid ingestGrid) error {
	// One cold and one warm collection give the sweep's own figures and the
	// results the replay takes its rates from.
	dir := filepath.Join(e.tmpDir, "cache")
	cold, err := collect(grid, dir)
	if err != nil {
		return err
	}
	warm, err := collect(grid, dir)
	if err != nil {
		return err
	}
	e.ingestChecks(cold, warm)
	e.ingestVirtual(cold)
	e.set("sweep.overhead_ms", ms(cold.wall)-cold.sessionMS)
	e.set("sweep.warm_cache_ms", ms(warm.wall))
	e.set("sweep.memo_shared", float64(cold.stats.Submitted-cold.stats.Started))

	// Untraced reference: the two LiveNAS sessions straight through core.
	// They double as the determinism pin (byte-identical to the sweep's).
	var plainWall time.Duration
	var objects, bytesAlloc, events, frames float64
	plain := make([]*core.Results, len(grid.live))
	for i, cfg := range grid.live {
		t0 := time.Now()
		o, b := allocDelta(func() { plain[i], err = core.RunContext(context.Background(), cfg) })
		if err != nil {
			return err
		}
		plainWall += time.Since(t0)
		objects, bytesAlloc = objects+o, bytesAlloc+b
		events += float64(len(plain[i].Telemetry().Events()))
		frames += cfg.Duration.Seconds() * cfg.FPS
		e.check(bytes.Equal(resultBytes(plain[i]), resultBytes(cold.live[i])), "ingest_sweep: a second core.RunContext of LiveNAS pair %d is not byte-identical to the sweep's", i)
	}
	streamS := frames / ingestFPS
	e.set("core.session_ms", ms(plainWall)/float64(len(plain)))
	e.set("core.allocs_per_frame", objects/frames)
	e.set("core.alloc_kb_per_frame", bytesAlloc/1024/frames)
	e.set("telemetry.events_per_stream_s", events/streamS)

	// Staged replay of the same two sessions, with spans.
	calibBefore := calibrate(e.sz.CalibChunks)
	tk := e.tr.Track("replay")
	var totals replayCounts
	t0 := time.Now()
	for i, cfg := range grid.live {
		tk.Begin(opBenchIter)
		r := newReplay(cfg, plain[i], tk)
		r.run()
		tk.End()
		st := r.link.Stats()
		r.packets, r.drops = st.Sent, st.Dropped
		totals.add(r.replayCounts)
	}
	replayWall := time.Since(t0)
	e.iterations = 1
	e.set("bench.speed_factor", speedFactor(calibBefore, calibrate(e.sz.CalibChunks)))

	agg := e.foldTrace()
	e.set("core.residual_share", (plainWall.Seconds()-replayWall.Seconds())/plainWall.Seconds())
	e.set("trace_overhead_pct", 100*float64(agg.spans)*spanCost().Seconds()/replayWall.Seconds())
	e.set("vidgen.frame_ms", agg.mean(opFrameAt, time.Millisecond))
	e.set("vidgen.calls", agg.count(opFrameAt))
	e.set("vidgen.share", agg.share(opFrameAt))
	e.set("codec.encode_ms", agg.mean(opEncode, time.Millisecond))
	e.set("codec.encode_calls", agg.count(opEncode))
	e.set("codec.encode_share", agg.share(opEncode, opPatchEncode))
	e.set("codec.encode_bytes_per_frame", float64(totals.encodedBytes)/float64(totals.frames))
	e.set("codec.patch_encode_us", agg.mean(opPatchEncode, time.Microsecond))
	e.set("codec.decode_ms", agg.mean(opDecode, time.Millisecond))
	e.set("codec.decode_share", agg.share(opDecode, opPatchDec))
	e.set("codec.patch_decode_us", agg.mean(opPatchDec, time.Microsecond))
	e.set("frame.downscale_ms", agg.mean(opDownscale, time.Millisecond))
	e.set("frame.resize_ms", agg.mean(opResize, time.Millisecond))
	e.set("frame.share", agg.share(opDownscale, opResize))
	e.set("metrics.psnr_ms", agg.mean(opPSNR, time.Millisecond))
	e.set("metrics.share", agg.share(opPSNR))
	e.set("transport.packetize_us", agg.mean(opPacketize, time.Microsecond))
	e.set("transport.fragments_per_frame", float64(totals.fragments)/float64(totals.frames))
	e.set("transport.link_share", agg.share(opLink, opPacketize))
	e.set("netem.packets", float64(totals.packets))
	e.set("netem.drops", float64(totals.drops))
	e.set("gcc.feedback_us", agg.mean(opGCC, time.Microsecond))
	e.set("gcc.calls", agg.count(opGCC))
	e.set("sim.events", float64(totals.events))
	e.set("sim.event_ns", float64(agg.ops[opLink].self.Nanoseconds())/float64(totals.events))
	e.set("sr.infer_ms", agg.mean(opInfer, time.Millisecond))
	e.set("sr.train_epoch_ms", agg.mean(opEpoch, time.Millisecond))
	e.set("sr.add_sample_us", agg.mean(opAddSample, time.Microsecond))
	e.set("sr.share", agg.share(opInfer, opInferPatch, opEpoch, opSyncIngest, opAddSample))
	return nil
}

// spanCost measures what one Begin/End pair costs on this machine; the
// replay has no untraced twin to compare with, so its tracing overhead is
// spans x this.
func spanCost() time.Duration {
	const n = 200000
	tk := NewTracer("calibration", 0).Track("calibration")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tk.Begin(opBenchIter)
		tk.End()
	}
	return time.Since(t0) / n
}
